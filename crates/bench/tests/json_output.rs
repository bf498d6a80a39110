//! Result output: JSON streams to its sink in bounded writes, and the
//! `flov` CLI reports a closed stdout as an error instead of panicking.

use flov_bench::{RunResult, RunSpec};
use flov_noc::stats::IntervalSample;
use std::io::{self, Read, Write};
use std::process::{Command, Stdio};

/// Counts bytes and remembers the largest single write.
#[derive(Default)]
struct Counting {
    total: usize,
    largest: usize,
    writes: usize,
}

impl Write for Counting {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.total += buf.len();
        self.largest = self.largest.max(buf.len());
        self.writes += 1;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// ~20 MB of pretty JSON reaches the sink in writes of at most 128 KiB:
/// the writer never buffers the document.
#[test]
fn to_writer_pretty_streams_in_bounded_writes() {
    let spec = RunSpec::builder().k(4).warmup(200).cycles(1_500).drain(8_000).build();
    let base = flov_bench::run(&spec);
    let results: Vec<RunResult> = (0..200u64)
        .map(|i| {
            let mut r = base.clone();
            r.packets = i;
            r.timeline = (0..1_200u64)
                .map(|j| IntervalSample { start: j * 100, packets: i + j, latency_sum: i * j })
                .collect();
            r
        })
        .collect();
    let mut sink = Counting::default();
    serde_json::to_writer_pretty(&mut sink, &results).unwrap();
    assert!(sink.largest <= 128 * 1024, "a single write of {} bytes", sink.largest);
    assert_eq!(sink.total, serde_json::to_string_pretty(&results).unwrap().len());
    assert!(sink.writes > 100, "only {} writes for {} bytes", sink.writes, sink.total);
}

/// `flov sweep | head -c 100`: the reader goes away while flov is still
/// writing, and flov says so and exits 1.
#[test]
fn sweep_into_a_closed_pipe_exits_cleanly() {
    let dir = std::env::temp_dir().join(format!("flov-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A per-cycle timeline makes each result ~1.7 MB of JSON, far more
    // than a pipe buffers.
    let spec = RunSpec::builder().k(4).rate(0.1).warmup(0).cycles(20_000).timeline_width(1).build();
    let path = dir.join("spec.json");
    std::fs::write(&path, serde_json::to_string(&vec![spec; 2]).unwrap()).unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_flov"))
        .args(["sweep", "--spec"])
        .arg(&path)
        .args(["--no-cache", "--quiet"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut head = [0u8; 100];
    // The read end closes as soon as this temporary is dropped.
    child.stdout.take().unwrap().read_exact(&mut head).unwrap();
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: cannot write results: "), "{stderr}");
    assert!(head.starts_with(b"[\n  {"));
    std::fs::remove_dir_all(&dir).unwrap();
}
