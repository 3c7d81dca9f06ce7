pub fn fan_out(items: &[u64]) -> u64 {
    let (a, b) = items.split_at(items.len() / 2);
    std::thread::scope(|s| {
        let left = s.spawn(|| a.iter().sum::<u64>());
        b.iter().sum::<u64>() + left.join().unwrap_or(0)
    })
}

pub fn detached() {
    let _ = std::thread::spawn(|| ());
}
