//! A request deadline stops the tableau build inside one node's
//! expansion: the probe spec's root `Blocks` expansion alone runs for
//! minutes, so a deadline polled only between expansions would never
//! fire.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_ftsyn");

#[test]
fn a_deadline_stops_an_exponential_blocks_expansion() {
    let spec = format!(
        "{}/tests/data/blocks_blowup.ftsyn",
        env!("CARGO_MANIFEST_DIR")
    );
    let start = Instant::now();
    let mut child = Command::new(BIN)
        .args([spec.as_str(), "--timeout", "1", "--quiet"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("the ftsyn binary starts");
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on ftsyn") {
            break status;
        }
        if start.elapsed() > Duration::from_secs(10) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("`--timeout 1` did not stop the build within 10 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(4), "a deadline abort exits 4");
}
