pub fn watchdog() {
    // lint:allow(thread): a watchdog that runs no shard job and touches no counter
    let _ = std::thread::Builder::new().spawn(|| ());
}
