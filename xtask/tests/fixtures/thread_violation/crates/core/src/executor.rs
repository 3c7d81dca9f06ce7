pub fn claim_loop(workers: usize) {
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| ());
        }
    });
}
