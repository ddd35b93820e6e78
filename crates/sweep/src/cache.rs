//! Persistent content-addressed sample cache: a warm re-run of a sweep
//! replays simulation results from disk instead of recomputing them.
//!
//! A sample's identity is
//! `(engine version, arch, app, setting, config, seed)` — exactly the
//! inputs a batch's simulation and identity-derived noise stream are a
//! pure function of (`config_index` is pinned by the configuration and
//! the setting). Every float is stored as its IEEE-754 bit pattern
//! (`f64::to_bits`) so cached samples are **byte-identical** to
//! recomputed ones — NaN failure-injected repetitions included — which
//! the determinism tests pin.
//!
//! Each `(arch, app, setting)` batch is one fixed-record binary file,
//! `<cache-dir>/<arch-id>/<app>-i<input>-t<threads>.bin`: a checksummed
//! header carrying the batch spec, then fixed-stride records of raw
//! little-endian `u64` words. Because every record has the same stride,
//! a record's byte offset is a function of its slot — the loader builds
//! a `config_index → slot` index in one pass with no parsing, and warm
//! lookups are O(1) word reads plus a fieldwise FNV fingerprint check.
//! Files of any other name in a cache directory are never read.
//!
//! Damage degrades to recomputation: a damaged header makes the whole
//! batch a miss, and a torn or checksum-failing record makes that one
//! sample a miss. Either is counted as `SampleCacheCorrupt`, and the
//! recomputed batch is rewritten. The cache can never change a result,
//! only the time it takes to produce it.

use crate::provenance::config_fingerprint;
use crate::registry::fnv_bytes;
use crate::runner::{RunKey, SampleTelemetry, SettingData};
use crate::spec::SweepSpec;
use omptune_core::TuningConfig;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Cache format / simulator-semantics version. Bump whenever the
/// simulator, the noise model, or the record layout changes meaning —
/// stale-version batches are ignored (recomputed), never reinterpreted.
pub const ENGINE_VERSION: u32 = 1;

/// The `config_index` under which a batch's default-configuration row is
/// stored (it is not part of the sampled space; the runner gives it this
/// sentinel index for its noise stream already).
pub const DEFAULT_ROW_INDEX: usize = usize::MAX;

// ---------------------------------------------------------------------
// Binary batch format.
//
// All values are little-endian u64 words. Layout ("OMPSCB02"):
//
//   header   [magic, engine, reps, seed, failure_rate_bits,
//             count, hash_kind, checksum]                       8 words
//   record×N [config_index, verify_hash, virtual_ns_bits, regions,
//             breakdown_bits×7, energy_bits×6,
//             runtimes_bits×reps, checksum]                     18+reps
//
// `verify_hash` is the record's fieldwise `config_fingerprint`, and
// `hash_kind` is always 0. Checksums are FNV-1a over the preceding bytes
// of the header/record. A header that fails any check rejects the whole
// file (every lookup misses); a sound header for a different spec is a
// legitimately stale batch (empty, not counted as corrupt); a record
// whose checksum fails, or that the file ends inside, is skipped.
// ---------------------------------------------------------------------

const BIN_MAGIC: u64 = u64::from_le_bytes(*b"OMPSCB02");
const HEADER_WORDS: usize = 8;
const HEADER_BYTES: usize = HEADER_WORDS * 8;
/// The only `hash_kind` header word: `verify_hash` is the fingerprint.
const HASH_KIND: u64 = 0;
/// Telemetry breakdown words per record.
const BREAKDOWN_FIELDS: usize = 7;
/// Energy words per record: total, active, memory, wait, serial, base.
const ENERGY_FIELDS: usize = 6;
/// Word offsets within a record.
const VERIFY_AT: usize = 1;
const VIRTUAL_AT: usize = 2;
const REGIONS_AT: usize = 3;
const BREAKDOWN_AT: usize = 4;
const ENERGY_AT: usize = BREAKDOWN_AT + BREAKDOWN_FIELDS;
const RUNTIMES_AT: usize = ENERGY_AT + ENERGY_FIELDS;

fn record_words(reps: usize) -> usize {
    RUNTIMES_AT + reps + 1
}

/// Header words 1..=4: the spec a batch was written for (and must
/// match to answer).
fn spec_words(spec: &SweepSpec) -> [u64; 4] {
    [
        ENGINE_VERSION as u64,
        spec.reps as u64,
        spec.seed,
        spec.failure_rate.to_bits(),
    ]
}

fn push_word(buf: &mut Vec<u8>, w: u64) {
    buf.extend_from_slice(&w.to_le_bytes());
}

fn read_word(bytes: &[u8], word_idx: usize) -> u64 {
    let at = word_idx * 8;
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

fn encode_record(
    buf: &mut Vec<u8>,
    config_index: usize,
    config: &TuningConfig,
    runtimes: &[f64],
    tel: &SampleTelemetry,
) {
    let start = buf.len();
    push_word(buf, config_index as u64);
    push_word(buf, config_fingerprint(config));
    push_word(buf, tel.virtual_ns.to_bits());
    push_word(buf, tel.regions);
    let b = &tel.breakdown;
    let e = &tel.energy;
    for v in [
        b.compute_ns,
        b.memory_ns,
        b.sync_ns,
        b.wake_ns,
        b.dispatch_ns,
        b.serial_ns,
        b.imbalance_ns,
        e.total_j,
        e.active_j,
        e.memory_j,
        e.wait_j,
        e.serial_j,
        e.base_j,
    ]
    .into_iter()
    .chain(runtimes.iter().copied())
    {
        push_word(buf, v.to_bits());
    }
    let sum = fnv_bytes(&buf[start..]);
    push_word(buf, sum);
}

/// A loaded batch: the file's bytes plus a `config_index → slot` index
/// over the records whose checksums hold (the fixed record stride makes
/// a slot's offset pure arithmetic). Lookups verify the configuration
/// fingerprint, so an index collision from a different space layout can
/// never serve a wrong sample.
pub struct BatchEntries {
    bytes: Vec<u8>,
    /// Repetitions per record.
    reps: usize,
    /// `config_index → slot`; a repeated index keeps its last record.
    index: HashMap<usize, u32>,
}

impl BatchEntries {
    /// No cached entries (cold batch): every lookup misses.
    pub fn empty() -> BatchEntries {
        BatchEntries {
            bytes: Vec::new(),
            reps: 0,
            index: HashMap::new(),
        }
    }

    /// The cached `(runtimes, telemetry)` for `config`, if present and
    /// content-addressed to exactly this configuration.
    pub fn lookup(
        &self,
        config_index: usize,
        config: &TuningConfig,
    ) -> Option<(Vec<f64>, SampleTelemetry)> {
        let &slot = self.index.get(&config_index)?;
        let stride = record_words(self.reps) * 8;
        let at = HEADER_BYTES + slot as usize * stride;
        let rec = &self.bytes[at..at + stride];
        if read_word(rec, VERIFY_AT) != config_fingerprint(config) {
            return None;
        }
        let f = |w: usize| f64::from_bits(read_word(rec, w));
        let runtimes = (RUNTIMES_AT..RUNTIMES_AT + self.reps).map(f).collect();
        let b = BREAKDOWN_AT;
        let e = ENERGY_AT;
        let telemetry = SampleTelemetry {
            virtual_ns: f(VIRTUAL_AT),
            regions: read_word(rec, REGIONS_AT),
            breakdown: omptel::Breakdown {
                compute_ns: f(b),
                memory_ns: f(b + 1),
                sync_ns: f(b + 2),
                wake_ns: f(b + 3),
                dispatch_ns: f(b + 4),
                serial_ns: f(b + 5),
                imbalance_ns: f(b + 6),
            },
            energy: omptel::EnergyBreakdown {
                total_j: f(e),
                active_j: f(e + 1),
                memory_j: f(e + 2),
                wait_j: f(e + 3),
                serial_j: f(e + 4),
                base_j: f(e + 5),
            },
        };
        omptel::add(omptel::Counter::SampleCacheIndexHits, 1);
        Some((runtimes, telemetry))
    }

    /// Number of usable records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the batch holds no usable records.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

/// Thread-safe handle to an on-disk sample cache rooted at one
/// directory. Hit/miss counts are tracked locally (always) and mirrored
/// into the `omptel` counters when a telemetry session is active.
/// Opening the cache reaps stale temporary files left by crashed
/// writers (counted under `SampleCacheTmpReaped`).
pub struct SampleCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    tmp_reaped: u64,
}

impl SampleCache {
    /// Cache rooted at `dir` (created on first store). Stale `*.tmp`
    /// files from interrupted stores are deleted here: a crash between
    /// create and rename leaves them orphaned, and they would otherwise
    /// accumulate forever.
    pub fn new(dir: impl Into<PathBuf>) -> SampleCache {
        let dir = dir.into();
        let tmp_reaped = reap_tmp_files(&dir);
        if tmp_reaped > 0 {
            omptel::add(omptel::Counter::SampleCacheTmpReaped, tmp_reaped);
        }
        SampleCache {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            tmp_reaped,
        }
    }

    /// The cache root.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Stale temporary files deleted when this handle opened.
    pub fn tmp_reaped(&self) -> u64 {
        self.tmp_reaped
    }

    /// The binary file holding one `(arch, app, setting)` batch.
    pub fn bin_path(&self, key: &RunKey) -> PathBuf {
        let stem = key.stem();
        let mut name = String::with_capacity(stem.len() + 4);
        name.push_str(stem);
        name.push_str(".bin");
        self.dir.join(key.arch.id()).join(name)
    }

    /// Load the usable records of one batch. A missing file, a damaged
    /// header, corrupt records, or a wrong-spec header all degrade to
    /// misses (damage is reported to the flight recorder / anomaly
    /// watchdog as cache corruption), never to an error or a wrong
    /// result.
    pub fn load_batch(&self, key: &RunKey, spec: &SweepSpec) -> BatchEntries {
        let _span = omptel::span(omptel::SpanKind::CacheRead, key.num_threads as u64);
        let Ok(bytes) = std::fs::read(self.bin_path(key)) else {
            return BatchEntries::empty();
        };
        let (entries, corrupt) = decode_bin_batch(bytes, key, spec);
        if corrupt > 0 {
            omptel::add(omptel::Counter::SampleCacheCorrupt, corrupt);
        }
        entries
    }

    /// Persist one completed batch (all samples plus the default row),
    /// replacing any previous file. The write goes through a temporary
    /// file renamed into place, so a crash mid-write leaves either the
    /// old or the new content — a torn tail at worst, which the tolerant
    /// loader degrades to misses (and whose leftover `.tmp` the next
    /// open reaps).
    pub fn store_batch(&self, data: &SettingData, spec: &SweepSpec) -> std::io::Result<()> {
        let _span = omptel::span(omptel::SpanKind::CacheWrite, data.samples.len() as u64);
        let count = data.samples.len() + 1;
        let mut buf =
            Vec::with_capacity(HEADER_BYTES + count * record_words(spec.reps as usize) * 8);
        push_word(&mut buf, BIN_MAGIC);
        for w in spec_words(spec) {
            push_word(&mut buf, w);
        }
        push_word(&mut buf, count as u64);
        push_word(&mut buf, HASH_KIND);
        let sum = fnv_bytes(&buf);
        push_word(&mut buf, sum);
        for s in &data.samples {
            encode_record(
                &mut buf,
                s.config_index,
                &s.config,
                &s.runtimes,
                &s.telemetry,
            );
        }
        encode_record(
            &mut buf,
            DEFAULT_ROW_INDEX,
            &TuningConfig::default_for(data.key.arch, data.key.num_threads),
            &data.default_runtimes,
            &data.default_telemetry,
        );
        let path = self.bin_path(&data.key);
        std::fs::create_dir_all(path.parent().expect("batch path has a parent"))?;
        let tmp = path.with_extension("bin.tmp");
        std::fs::write(&tmp, &buf)?;
        std::fs::rename(&tmp, &path)
    }

    /// Record `n` cache hits.
    pub fn count_hits(&self, n: u64) {
        self.hits.fetch_add(n, Ordering::Relaxed);
        omptel::add(omptel::Counter::SampleCacheHits, n);
    }

    /// Record `n` cache misses.
    pub fn count_misses(&self, n: u64) {
        self.misses.fetch_add(n, Ordering::Relaxed);
        omptel::add(omptel::Counter::SampleCacheMisses, n);
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// Delete stale `*.tmp` files under a cache root (top level and the
/// per-architecture subdirectories). Returns how many were removed.
fn reap_tmp_files(dir: &Path) -> u64 {
    fn reap_dir(dir: &Path, recurse: bool, reaped: &mut u64) {
        let Ok(read) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in read.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if recurse {
                    reap_dir(&path, false, reaped);
                }
            } else if path.extension().is_some_and(|e| e == "tmp")
                && std::fs::remove_file(&path).is_ok()
            {
                *reaped += 1;
            }
        }
    }
    let mut reaped = 0;
    reap_dir(dir, true, &mut reaped);
    reaped
}

/// Report one piece of cache damage to the flight recorder / watchdog.
fn report_corrupt(key: &RunKey, what: std::fmt::Arguments) {
    omptel::report_corrupt(&format!(
        "{}/{} i{} t{}: unparseable record {what}",
        key.arch.id(),
        key.app,
        key.input_code,
        key.num_threads,
    ));
}

/// Decode one binary batch file into its usable records, plus the
/// number of damaged pieces found (the header counts once; a damaged
/// header yields no records). A sound header for a different spec is
/// stale, not damaged: no records, nothing counted.
fn decode_bin_batch(bytes: Vec<u8>, key: &RunKey, spec: &SweepSpec) -> (BatchEntries, u64) {
    let header_fault = if bytes.len() < HEADER_BYTES {
        Some("short file")
    } else if read_word(&bytes, 0) != BIN_MAGIC {
        Some("bad magic")
    } else if read_word(&bytes, HEADER_WORDS - 1) != fnv_bytes(&bytes[..HEADER_BYTES - 8]) {
        Some("bad checksum")
    } else if read_word(&bytes, 6) != HASH_KIND {
        Some("unknown hash kind")
    } else {
        None
    };
    if let Some(what) = header_fault {
        report_corrupt(key, format_args!("header ({what}) in binary batch"));
        return (BatchEntries::empty(), 1);
    }
    let want = spec_words(spec);
    if want
        .iter()
        .enumerate()
        .any(|(i, &w)| read_word(&bytes, 1 + i) != w)
    {
        return (BatchEntries::empty(), 0);
    }
    let reps = spec.reps as usize;
    let rec_words = record_words(reps);
    let stride = rec_words * 8;
    // `count` is outside input: reserve only for records the file holds.
    let count = read_word(&bytes, 5) as usize;
    let present = (bytes.len() - HEADER_BYTES) / stride;
    let mut index = HashMap::with_capacity(count.min(present));
    let mut corrupt = 0;
    for slot in 0..count {
        let at = HEADER_BYTES + slot * stride;
        let Some(rec) = bytes.get(at..at + stride) else {
            // Torn tail: everything before it already loaded.
            corrupt += 1;
            report_corrupt(key, format_args!("at slot {slot} (truncated binary batch)"));
            break;
        };
        if read_word(rec, rec_words - 1) != fnv_bytes(&rec[..stride - 8]) {
            corrupt += 1;
            report_corrupt(
                key,
                format_args!("at slot {slot} (checksum) in binary batch"),
            );
            continue;
        }
        let config_index = match read_word(rec, 0) {
            u64::MAX => DEFAULT_ROW_INDEX,
            idx => idx as usize,
        };
        index.insert(config_index, slot as u32);
    }
    (BatchEntries { bytes, reps, index }, corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Scope;
    use omptune_core::Arch;
    use workloads::Setting;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("omptune-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> SweepSpec {
        SweepSpec {
            scope: Scope::Strided(700),
            reps: 3,
            seed: 21,
            failure_rate: 0.1,
            ..SweepSpec::default()
        }
    }

    fn batch(spec: &SweepSpec) -> SettingData {
        let app = workloads::app("cg").unwrap();
        let setting = Setting {
            input_code: 0,
            num_threads: 40,
        };
        crate::runner::sweep_setting(Arch::Skylake, app, setting, 0, spec)
    }

    fn set_word(bytes: &mut [u8], word_idx: usize, w: u64) {
        bytes[word_idx * 8..word_idx * 8 + 8].copy_from_slice(&w.to_le_bytes());
    }

    /// Rewrite the header checksum so only the deliberate damage shows.
    fn seal_header(bytes: &mut [u8]) {
        let sum = fnv_bytes(&bytes[..HEADER_BYTES - 8]);
        set_word(bytes, HEADER_WORDS - 1, sum);
    }

    #[test]
    fn records_round_trip_bit_exactly_including_nans() {
        let spec = spec();
        let data = batch(&spec);
        // failure_rate 0.1 ⇒ some NaN repetitions exist in the batch.
        assert!(data
            .samples
            .iter()
            .any(|s| s.runtimes.iter().any(|r| r.is_nan())));
        let cache = SampleCache::new(tmp_dir("roundtrip"));
        cache.store_batch(&data, &spec).unwrap();
        // The store leaves exactly one file per batch: the `.bin`.
        let bin = cache.bin_path(&data.key);
        let files: Vec<PathBuf> = std::fs::read_dir(bin.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(files, vec![bin]);
        let entries = cache.load_batch(&data.key, &spec);
        assert_eq!(entries.len(), data.samples.len() + 1);
        for s in &data.samples {
            let (runtimes, telemetry) = entries
                .lookup(s.config_index, &s.config)
                .expect("cached sample present");
            let got: Vec<u64> = runtimes.iter().map(|r| r.to_bits()).collect();
            let want: Vec<u64> = s.runtimes.iter().map(|r| r.to_bits()).collect();
            assert_eq!(got, want, "config {}", s.config_index);
            assert_eq!(
                telemetry.virtual_ns.to_bits(),
                s.telemetry.virtual_ns.to_bits()
            );
            assert_eq!(telemetry.regions, s.telemetry.regions);
            assert_eq!(
                telemetry.energy.total_j.to_bits(),
                s.telemetry.energy.total_j.to_bits()
            );
            assert_eq!(
                telemetry.energy.wait_j.to_bits(),
                s.telemetry.energy.wait_j.to_bits()
            );
        }
        let default_config = TuningConfig::default_for(Arch::Skylake, 40);
        let (dflt, _) = entries
            .lookup(DEFAULT_ROW_INDEX, &default_config)
            .expect("default row cached");
        assert_eq!(
            dflt.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            data.default_runtimes
                .iter()
                .map(|r| r.to_bits())
                .collect::<Vec<_>>()
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn wrong_spec_records_are_misses() {
        let spec = spec();
        let data = batch(&spec);
        let cache = SampleCache::new(tmp_dir("spec"));
        cache.store_batch(&data, &spec).unwrap();
        // Different seed ⇒ nothing answers.
        let reseeded = SweepSpec { seed: 22, ..spec };
        assert!(cache.load_batch(&data.key, &reseeded).is_empty());
        // Different rep count ⇒ nothing answers.
        let rereps = SweepSpec { reps: 4, ..spec };
        assert!(cache.load_batch(&data.key, &rereps).is_empty());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_binary_records_are_skipped_not_fatal() {
        let spec = spec();
        let data = batch(&spec);
        let cache = SampleCache::new(tmp_dir("corrupt-bin"));
        cache.store_batch(&data, &spec).unwrap();
        let bin = cache.bin_path(&data.key);
        let mut bytes = std::fs::read(&bin).unwrap();
        let stride = record_words(spec.reps as usize) * 8;
        // Flip a payload byte inside the first record (its checksum now
        // fails) and tear the final record (the default row) in half.
        bytes[HEADER_WORDS * 8 + 16] ^= 0xff;
        bytes.truncate(bytes.len() - stride / 2);
        std::fs::write(&bin, &bytes).unwrap();
        let entries = cache.load_batch(&data.key, &spec);
        // The two damaged records are gone; everything else survives.
        assert_eq!(entries.len(), data.samples.len() + 1 - 2);
        // Damaged rows read as misses.
        assert!(entries
            .lookup(data.samples[0].config_index, &data.samples[0].config)
            .is_none());
        let default_config = TuningConfig::default_for(Arch::Skylake, 40);
        assert!(entries.lookup(DEFAULT_ROW_INDEX, &default_config).is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn damaged_header_is_a_whole_batch_miss_until_restored() {
        let spec = spec();
        let data = batch(&spec);
        let cache = SampleCache::new(tmp_dir("corrupt-header"));
        let bin = cache.bin_path(&data.key);
        let default_config = TuningConfig::default_for(Arch::Skylake, 40);
        // Each mutation keeps a correct header checksum unless it is the
        // damage under test.
        type Damage = fn(&mut Vec<u8>);
        let mutations: [(&str, Damage); 4] = [
            ("flipped magic byte", |b| {
                b[3] ^= 0xff;
                seal_header(b);
            }),
            ("legacy OMPSCB01 magic", |b| {
                set_word(b, 0, u64::from_le_bytes(*b"OMPSCB01"));
                seal_header(b);
            }),
            ("hash_kind = 1", |b| {
                set_word(b, 6, 1);
                seal_header(b);
            }),
            ("broken checksum", |b| b[HEADER_BYTES - 1] ^= 0xff),
        ];
        for (what, damage) in mutations {
            cache.store_batch(&data, &spec).unwrap();
            let mut bytes = std::fs::read(&bin).unwrap();
            damage(&mut bytes);
            std::fs::write(&bin, &bytes).unwrap();
            let (decoded, corrupt) = decode_bin_batch(bytes, &data.key, &spec);
            assert!(decoded.is_empty(), "{what}: records loaded");
            assert_eq!(corrupt, 1, "{what}: damage not counted once");
            let entries = cache.load_batch(&data.key, &spec);
            assert!(entries.is_empty(), "{what}: records loaded");
            for s in &data.samples {
                assert!(entries.lookup(s.config_index, &s.config).is_none());
            }
            assert!(entries.lookup(DEFAULT_ROW_INDEX, &default_config).is_none());
            // Re-persisting the recomputed batch restores every answer.
            cache.store_batch(&data, &spec).unwrap();
            let entries = cache.load_batch(&data.key, &spec);
            assert_eq!(entries.len(), data.samples.len() + 1, "{what}");
            for s in &data.samples {
                assert!(entries.lookup(s.config_index, &s.config).is_some());
            }
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn header_count_beyond_the_file_loads_the_records_present() {
        let spec = spec();
        let data = batch(&spec);
        let cache = SampleCache::new(tmp_dir("huge-count"));
        cache.store_batch(&data, &spec).unwrap();
        let bin = cache.bin_path(&data.key);
        let mut bytes = std::fs::read(&bin).unwrap();
        // A checksum-valid header claiming far more records than exist
        // must not size any allocation by the claim.
        set_word(&mut bytes, 5, u64::MAX >> 8);
        seal_header(&mut bytes);
        std::fs::write(&bin, &bytes).unwrap();
        let (decoded, corrupt) = decode_bin_batch(bytes, &data.key, &spec);
        assert_eq!(decoded.len(), data.samples.len() + 1);
        // The missing record after the last present one is a torn tail.
        assert_eq!(corrupt, 1);
        let entries = cache.load_batch(&data.key, &spec);
        for s in &data.samples {
            assert!(entries.lookup(s.config_index, &s.config).is_some());
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn hash_mismatch_never_serves_a_wrong_config() {
        let spec = spec();
        let data = batch(&spec);
        let cache = SampleCache::new(tmp_dir("hash"));
        cache.store_batch(&data, &spec).unwrap();
        let entries = cache.load_batch(&data.key, &spec);
        let s = &data.samples[0];
        let mut other = s.config;
        other.schedule = match other.schedule {
            omptune_core::OmpSchedule::Static => omptune_core::OmpSchedule::Dynamic,
            _ => omptune_core::OmpSchedule::Static,
        };
        assert!(entries.lookup(s.config_index, &other).is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn missing_file_is_an_empty_batch() {
        let cache = SampleCache::new(tmp_dir("missing"));
        let key = RunKey::new(Arch::Milan, "cg", 1, 96);
        assert!(cache.load_batch(&key, &spec()).is_empty());
        assert_eq!(cache.stats(), (0, 0));
    }

    #[test]
    fn stale_tmp_files_are_reaped_on_open() {
        let dir = tmp_dir("reap");
        let arch_dir = dir.join("skylake");
        std::fs::create_dir_all(&arch_dir).unwrap();
        std::fs::write(dir.join("stray.tmp"), b"torn").unwrap();
        std::fs::write(arch_dir.join("cg-i0-t40.bin.tmp"), b"torn").unwrap();
        std::fs::write(arch_dir.join("cg-i0-t40.bin"), b"").unwrap();
        let cache = SampleCache::new(&dir);
        assert_eq!(cache.tmp_reaped(), 2);
        assert!(!dir.join("stray.tmp").exists());
        assert!(!arch_dir.join("cg-i0-t40.bin.tmp").exists());
        assert!(arch_dir.join("cg-i0-t40.bin").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
