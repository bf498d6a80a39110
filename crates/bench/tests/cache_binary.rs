//! The sharded binary cache: format round-trips, index correctness,
//! corruption quarantine, GC eviction order, format-version misses, and
//! work-stealing determinism; plus the canonical JSON its keys hash.

use flov_bench::cache::QUARANTINE_DIR;
use flov_bench::fuzz::sample_spec;
use flov_bench::{binfmt, Engine, GcOptions, ResultCache, RunResult, RunSpec, KERNEL_VERSION};
use flov_noc::rng::Rng;
use proptest::prelude::*;
use serde::Serialize;
use serde_json::JsonWriter;
use std::fs::{self, FileTimes};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, SystemTime};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh cache directory per test, safe under parallel test threads.
fn temp_cache_dir() -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("flov-cache-bin-test-{}-{n}", std::process::id()))
}

fn tiny_spec(fraction: f64, seed: u64) -> RunSpec {
    RunSpec::builder()
        .k(4)
        .gated_fraction(fraction)
        .seed(seed)
        .warmup(200)
        .cycles(1_500)
        .drain(8_000)
        .build()
}

/// Canonical spec JSON + content key for `spec` under the current salt.
fn key_of(spec: &RunSpec) -> String {
    let json = serde_json::to_string(&spec.resolved()).unwrap();
    ResultCache::key(&json, KERNEL_VERSION)
}

/// The on-disk path of a sharded entry.
fn entry_path(dir: &Path, key: &str, ext: &str) -> PathBuf {
    dir.join(&key[..2]).join(format!("{key}.{ext}"))
}

fn binary_engine(dir: &Path) -> Engine {
    Engine::with_cache(ResultCache::new(dir)).quiet()
}

/// `to_string` and `to_string_pretty`, which stream through `write_json`,
/// give exactly the text of writing the `to_value` tree.
fn lowerings_agree<T: Serialize>(x: &T) {
    for pretty in [false, true] {
        let streamed = if pretty {
            serde_json::to_string_pretty(x).unwrap()
        } else {
            serde_json::to_string(x).unwrap()
        };
        let mut w = JsonWriter::new(pretty);
        w.value(&x.to_value());
        assert_eq!(streamed, w.into_string(), "pretty: {pretty}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// A simulated `RunResult` survives JSON ⇄ binary bit-identically:
    /// decoding the binary container yields exactly the result the JSON
    /// round trip yields, down to every float bit (canonical JSON uses
    /// shortest-roundtrip floats, so string equality is bit equality).
    #[test]
    fn runresult_roundtrips_json_and_binary_bit_identically(
        fraction in 0.0f64..0.8,
        seed in 0u64..1_000_000,
    ) {
        let spec = tiny_spec(fraction, seed).resolved();
        let result = flov_bench::run(&spec);
        let json = serde_json::to_string(&result).unwrap();
        let via_json: RunResult = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&serde_json::to_string(&via_json).unwrap(), &json);

        let spec_json = serde_json::to_string(&spec).unwrap();
        let key = ResultCache::key(&spec_json, KERNEL_VERSION);
        let bytes = binfmt::encode_entry(&key, KERNEL_VERSION, &spec_json, &result);
        let entry = binfmt::decode_entry(&bytes).unwrap();
        prop_assert_eq!(&entry.key, &key);
        prop_assert_eq!(entry.kernel_version, KERNEL_VERSION);
        prop_assert_eq!(&entry.spec_json, &spec_json);
        let decoded = entry.result.expect("a current-format entry decodes its result");
        prop_assert_eq!(&serde_json::to_string(&decoded).unwrap(), &json);

        // The probe path decodes the same result...
        let probed = binfmt::decode_result(&bytes, &key, KERNEL_VERSION).unwrap().unwrap();
        prop_assert_eq!(&serde_json::to_string(&probed).unwrap(), &json);
        // ...and a salt mismatch is a plain miss, not an error.
        prop_assert!(binfmt::decode_result(&bytes, &key, KERNEL_VERSION + 1).unwrap().is_none());
    }

    /// The derive's streaming `write_json` and its `to_value` lowering
    /// agree on simulated results (with a timeline) and on specs of every
    /// workload kind; `sample_spec` draws the topologies, the hand-written
    /// `NocConfig` impl, hotspot patterns and mechanism switches.
    #[test]
    fn json_writer_matches_value_tree_lowering(
        fraction in 0.0f64..0.8,
        seed in 0u64..1_000_000,
    ) {
        let mut spec = tiny_spec(fraction, seed);
        spec.timeline_width = 100;
        let spec = spec.resolved();
        lowerings_agree(&flov_bench::run(&spec));
        lowerings_agree(&spec);
        lowerings_agree(&sample_spec(&mut Rng::new(seed), 20_000));
        lowerings_agree(&RunSpec::parsec("RP", "canneal", seed));
        lowerings_agree(&RunSpec::builder().trace("t.flovtrace", seed as u32, true).build());
    }
}

/// Every cache key hashes a spec's canonical JSON, so formatter drift would
/// silently orphan every existing entry. Pin one spec's JSON and its key
/// (under salt 3, the kernel version these literals were taken at).
#[test]
fn canonical_spec_json_and_cache_key_are_pinned() {
    let json = serde_json::to_string(&tiny_spec(0.25, 7).resolved()).unwrap();
    let pinned = concat!(
        r#"{"cfg":{"k":4,"vnets":3,"regular_vcs":3,"escape_vcs":1,"buf_depth":6"#,
        r#","pipeline_stages":3,"link_latency":1,"wakeup_latency":10,"idle_threshold":16"#,
        r#","escape_timeout":128,"synth_packet_len":4,"clock_hz":2000000000.0"#,
        r#","nic_queue_warn":4096,"enable_ring":false,"seed":4044353807"#,
        r#","watchdog_cycles":50000},"mechanism":"gFLOV""#,
        r#","workload":{"Synthetic":{"pattern":"UniformRandom","rate":0.02"#,
        r#","gated_fraction":0.25,"seed":7,"changes":[]}},"warmup":200,"cycles":1500"#,
        r#","drain":8000,"timeline_width":0,"power_params":{"e_buffer_write":4.8e-12"#,
        r#","e_buffer_read":3.4e-12,"e_xbar":6.6e-12,"e_arbiter":3e-13,"e_link":2.6e-12"#,
        r#","e_flov_latch":9e-13,"e_ring_hop":3.5e-12,"p_ring_node_leak":0.00035"#,
        r#","e_credit":5e-14,"e_handshake":5e-14,"e_gating_event":1.77e-11"#,
        r#","p_router_leak":0.0131,"p_latch_leak":0.0004,"p_hsc_leak":5e-5"#,
        r#","p_link_leak":0.0011,"clock_hz":2000000000.0},"audit":false,"mech_switches":[]}"#,
    );
    assert_eq!(json, pinned);
    assert_eq!(ResultCache::key(&json, 3), "2742126d028acba6cabeeba106caeda2");
}

#[test]
fn truncated_entry_is_a_quarantined_miss() {
    let dir = temp_cache_dir();
    let spec = tiny_spec(0.4, 7);
    binary_engine(&dir).run_one(&spec);
    let key = key_of(&spec);
    let path = entry_path(&dir, &key, "bin");
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

    let cache = ResultCache::new(&dir);
    assert!(cache.get(&key, KERNEL_VERSION).is_none(), "truncated entry must miss");
    assert!(!path.exists(), "truncated entry must be moved out of the shard");
    assert!(dir.join(QUARANTINE_DIR).join(format!("{key}.bin")).exists());
    let s = cache.stats();
    assert_eq!(s.entries, 0);
    assert_eq!(s.quarantined, 1);

    // The engine recovers transparently: the run is simulated afresh and
    // re-persisted under the same key.
    let engine = binary_engine(&dir);
    engine.run_one(&spec);
    assert_eq!(engine.stats().simulated, 1);
    assert!(path.exists());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_entry_is_a_quarantined_miss() {
    let dir = temp_cache_dir();
    let spec = tiny_spec(0.2, 8);
    binary_engine(&dir).run_one(&spec);
    let key = key_of(&spec);
    let path = entry_path(&dir, &key, "bin");
    let mut bytes = fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&path, &bytes).unwrap();

    let cache = ResultCache::new(&dir);
    assert!(cache.get(&key, KERNEL_VERSION).is_none(), "corrupt entry must miss, not crash");
    assert_eq!(cache.stats().quarantined, 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn index_rebuild_from_scan_matches_incremental_index() {
    let dir = temp_cache_dir();
    let specs: Vec<RunSpec> = (0..6).map(|i| tiny_spec(i as f64 * 0.1, 100 + i)).collect();
    let engine = binary_engine(&dir);
    engine.run_batch(&specs);

    // The engine's cache indexed each entry incrementally as it was
    // written; a fresh cache over the same directory must scan to the
    // exact same key set.
    let incremental = engine.cache().unwrap().known_keys();
    let rescanned = ResultCache::new(&dir).known_keys();
    assert_eq!(incremental.len(), specs.len());
    assert_eq!(incremental, rescanned);
    let mut expected: Vec<String> = specs.iter().map(key_of).collect();
    expected.sort();
    assert_eq!(rescanned, expected);
    let _ = fs::remove_dir_all(&dir);
}

/// Pin an entry's access+modify times (GC orders by the newer of the two).
fn set_entry_times(path: &Path, t: SystemTime) {
    let f = fs::File::options().write(true).open(path).unwrap();
    f.set_times(FileTimes::new().set_accessed(t).set_modified(t)).unwrap();
}

#[test]
fn gc_max_bytes_keeps_most_recently_used_entries() {
    let dir = temp_cache_dir();
    let specs: Vec<RunSpec> = (0..4).map(|i| tiny_spec(0.1 * i as f64, 200 + i)).collect();
    binary_engine(&dir).run_batch(&specs);
    let keys: Vec<String> = specs.iter().map(key_of).collect();
    let now = SystemTime::now();
    // Ages: specs[0] oldest ... specs[3] newest.
    for (i, key) in keys.iter().enumerate() {
        let age = Duration::from_secs(3600 * (specs.len() - i) as u64);
        set_entry_times(&entry_path(&dir, key, "bin"), now - age);
    }

    let cache = ResultCache::new(&dir);
    let sizes: Vec<u64> =
        keys.iter().map(|k| fs::metadata(entry_path(&dir, k, "bin")).unwrap().len()).collect();
    // Budget for exactly the two most recently used entries.
    let budget = sizes[2] + sizes[3];
    let report = cache.gc(&GcOptions { max_bytes: Some(budget), max_age: None }).unwrap();
    assert_eq!(report.scanned, 4);
    assert_eq!(report.removed, 2);
    assert!(!entry_path(&dir, &keys[0], "bin").exists(), "LRU entry must be evicted");
    assert!(!entry_path(&dir, &keys[1], "bin").exists());
    assert!(entry_path(&dir, &keys[2], "bin").exists(), "MRU entries must survive");
    assert!(entry_path(&dir, &keys[3], "bin").exists());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn gc_max_age_evicts_only_stale_entries() {
    let dir = temp_cache_dir();
    let fresh = tiny_spec(0.3, 300);
    let stale = tiny_spec(0.6, 301);
    binary_engine(&dir).run_batch(&[fresh.clone(), stale.clone()]);
    set_entry_times(
        &entry_path(&dir, &key_of(&stale), "bin"),
        SystemTime::now() - Duration::from_secs(48 * 3600),
    );

    let cache = ResultCache::new(&dir);
    let report = cache
        .gc(&GcOptions { max_bytes: None, max_age: Some(Duration::from_secs(24 * 3600)) })
        .unwrap();
    assert_eq!(report.removed, 1);
    assert!(entry_path(&dir, &key_of(&fresh), "bin").exists());
    assert!(!entry_path(&dir, &key_of(&stale), "bin").exists());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn previous_format_entry_is_a_plain_miss_and_is_overwritten() {
    let dir = temp_cache_dir();
    let spec = tiny_spec(0.45, 400);
    let original = binary_engine(&dir).run_one(&spec);
    let key = key_of(&spec);
    let path = entry_path(&dir, &key, "bin");

    // Rewrite the entry as format version 1: same header and body under
    // the old magic, with a CRC that matches, so only the version differs.
    let mut bytes = fs::read(&path).unwrap();
    assert_eq!(&bytes[..8], &binfmt::MAGIC);
    bytes[..8].copy_from_slice(b"FLOVBC1\n");
    let body = bytes.len() - 4;
    let crc = binfmt::crc32(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.to_le_bytes());
    fs::write(&path, &bytes).unwrap();

    // The probe misses without quarantining...
    let cache = ResultCache::new(&dir);
    assert!(cache.get(&key, KERNEL_VERSION).is_none(), "another format version must miss");
    assert!(path.exists(), "a version miss must stay in place");
    assert!(!dir.join(QUARANTINE_DIR).exists());
    // ...verify checks its CRC and content hash and passes it...
    let report = cache.verify();
    assert_eq!((report.checked, report.ok, report.quarantined), (1, 1, 0));
    assert!(path.exists());

    // ...and the engine re-simulates it and overwrites the same path with
    // a current entry that hits.
    let engine = binary_engine(&dir);
    let rerun = engine.run_one(&spec);
    assert_eq!(engine.stats().simulated, 1);
    assert_eq!(serde_json::to_string(&rerun).unwrap(), serde_json::to_string(&original).unwrap());
    assert_eq!(&fs::read(&path).unwrap()[..8], b"FLOVBC2\n");
    assert!(ResultCache::new(&dir).get(&key, KERNEL_VERSION).is_some());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn retired_json_entries_are_orphans_that_gc_and_clear_delete() {
    let dir = temp_cache_dir();
    let spec = tiny_spec(0.35, 450);
    binary_engine(&dir).run_one(&spec);
    let entry = entry_path(&dir, &key_of(&spec), "bin");
    // Files an older build wrote: a sharded JSON entry (in a shard of its
    // own) and a flat one in the cache root.
    let sharded = entry_path(&dir, "ab000000000000000000000000000000", "json");
    let flat = dir.join("cd000000000000000000000000000000.json");
    let json = b"{\"kernel_version\":3}";
    let plant = || {
        fs::create_dir_all(sharded.parent().unwrap()).unwrap();
        fs::write(&sharded, json).unwrap();
        fs::write(&flat, json).unwrap();
    };
    plant();

    let cache = ResultCache::new(&dir);
    let s = cache.stats();
    assert_eq!((s.entries, s.orphans, s.orphan_bytes), (1, 2, 2 * json.len() as u64));
    assert!(cache.get("ab000000000000000000000000000000", KERNEL_VERSION).is_none());
    // verify never decodes an orphan, so never quarantines one.
    let report = cache.verify();
    assert_eq!((report.checked, report.quarantined), (1, 0));

    // gc deletes orphans whatever its budget, and keeps the entry.
    let report = cache.gc(&GcOptions { max_bytes: Some(u64::MAX), max_age: None }).unwrap();
    assert_eq!((report.scanned, report.removed), (3, 2));
    assert!(!sharded.exists() && !flat.exists());
    assert!(entry.exists());

    // clear deletes them too, and the shard directories with them.
    plant();
    assert_eq!(cache.clear().unwrap(), 3);
    assert!(!sharded.exists() && !flat.exists() && !entry.exists());
    assert!(!sharded.parent().unwrap().exists(), "clear must remove emptied shard dirs");
    assert_eq!(cache.stats(), flov_bench::CacheStats::default());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn verify_quarantines_entries_filed_under_the_wrong_key() {
    let dir = temp_cache_dir();
    let spec = tiny_spec(0.5, 500);
    binary_engine(&dir).run_one(&spec);
    let key = key_of(&spec);
    // File a byte-for-byte copy of a valid entry under a different key:
    // structurally sound, wrong address.
    let prefix = if &key[..2] == "ff" { "00" } else { "ff" };
    let bogus = format!("{prefix}{}", &key[2..]);
    let from = entry_path(&dir, &key, "bin");
    let to = entry_path(&dir, &bogus, "bin");
    fs::create_dir_all(to.parent().unwrap()).unwrap();
    fs::copy(&from, &to).unwrap();

    let cache = ResultCache::new(&dir);
    let report = cache.verify();
    assert_eq!(report.checked, 2);
    assert_eq!(report.ok, 1);
    assert_eq!(report.quarantined, 1);
    assert!(from.exists());
    assert!(!to.exists());

    // The misfiled copy is also a hard miss on the probe path (hash
    // mismatch inside the container is corruption, not a silent hit).
    let dir2 = temp_cache_dir();
    let bytes = fs::read(&from).unwrap();
    let c2 = ResultCache::new(&dir2);
    let dest = dir2.join(&bogus[..2]).join(format!("{bogus}.bin"));
    fs::create_dir_all(dest.parent().unwrap()).unwrap();
    fs::write(&dest, &bytes).unwrap();
    assert!(c2.get(&bogus, KERNEL_VERSION).is_none());
    assert_eq!(c2.stats().quarantined, 1);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&dir2);
}

#[test]
fn work_stealing_batch_matches_sequential_execution() {
    let dir = temp_cache_dir();
    // A mixed batch with duplicates, big enough to spread across workers.
    let mut specs: Vec<RunSpec> = (0..10).map(|i| tiny_spec(0.08 * i as f64, 600 + i)).collect();
    specs.push(specs[2].clone());
    specs.push(specs[0].clone());

    let engine = binary_engine(&dir);
    let batch = engine.run_batch(&specs);

    // Sequential ground truth: each spec simulated in submission order,
    // no scheduler, no cache.
    let sequential: Vec<RunResult> = specs.iter().map(flov_bench::run).collect();
    assert_eq!(
        serde_json::to_string(&batch).unwrap(),
        serde_json::to_string(&sequential).unwrap(),
        "work-stealing execution changed results vs sequential order"
    );

    // And the cache keys are exactly the canonical per-spec hashes.
    let mut expected: Vec<String> = specs.iter().map(key_of).collect();
    expected.sort();
    expected.dedup();
    assert_eq!(engine.cache().unwrap().known_keys(), expected);
    let _ = fs::remove_dir_all(&dir);
}
