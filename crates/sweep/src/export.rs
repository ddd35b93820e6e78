//! Dataset export: the open-sourced artifacts the paper promises —
//! tabular CSV (one row per sample) and JSON (full fidelity via serde).

use crate::dataset::Dataset;
use crate::runner::SettingData;
use std::io::{self, Write};

/// CSV header for the tabular dataset.
pub const CSV_HEADER: &str = "arch,app,input_size,num_threads,omp_places,omp_proc_bind,\
omp_schedule,kmp_library,kmp_blocktime,kmp_force_reduction,kmp_align_alloc,speedup";

/// Write the processed dataset as CSV.
pub fn write_csv<W: Write>(ds: &Dataset, out: &mut W) -> io::Result<()> {
    writeln!(out, "{CSV_HEADER}")?;
    for r in &ds.records {
        let c = &r.config;
        writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{:.6}",
            r.arch.id(),
            r.app,
            r.input_size,
            c.num_threads,
            c.places.env_value().unwrap_or("unset"),
            c.proc_bind.env_value().unwrap_or("unset"),
            c.schedule.env_value(),
            c.library.env_value(),
            c.blocktime.env_value(),
            c.force_reduction.env_value().unwrap_or("unset"),
            c.align_alloc.bytes(),
            r.speedup,
        )?;
    }
    Ok(())
}

/// Serialize raw batches (the "raw output" artifact) as JSON.
pub fn write_raw_json<W: Write>(batches: &[SettingData], out: &mut W) -> io::Result<()> {
    serde_json::to_writer(out, batches).map_err(io::Error::other)
}

/// Round-trip helper used by tests and the repro binaries.
pub fn read_raw_json(data: &[u8]) -> io::Result<Vec<SettingData>> {
    serde_json::from_slice(data).map_err(io::Error::other)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RawSample, RunKey};
    use omptune_core::analysis::AnalysisRecord;
    use omptune_core::{Arch, TuningConfig};

    fn small_dataset() -> Dataset {
        Dataset {
            records: vec![AnalysisRecord {
                arch: Arch::Milan,
                app: "cg".into(),
                input_size: 1.0,
                config: TuningConfig::default_for(Arch::Milan, 96),
                speedup: 1.25,
            }],
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut buf = Vec::new();
        write_csv(&small_dataset(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next().unwrap(), CSV_HEADER);
        let row = lines.next().unwrap();
        assert!(row.starts_with("milan,cg,1,96,unset,unset,static,"));
        assert!(row.ends_with("1.250000"));
        assert_eq!(row.split(',').count(), CSV_HEADER.split(',').count());
    }

    #[test]
    fn raw_json_roundtrip() {
        let batches = vec![SettingData {
            key: RunKey::new(Arch::A64fx, "ep", 2, 48),
            samples: vec![RawSample {
                config_index: 17,
                config: TuningConfig::default_for(Arch::A64fx, 48),
                runtimes: vec![0.5, 0.51, 0.49],
                telemetry: crate::runner::SampleTelemetry {
                    virtual_ns: 5.0e8,
                    regions: 12,
                    breakdown: omptel::Breakdown {
                        compute_ns: 4.0e8,
                        imbalance_ns: 1.0e8,
                        ..omptel::Breakdown::default()
                    },
                    energy: omptel::EnergyBreakdown::default(),
                },
            }],
            default_runtimes: vec![0.5, 0.5, 0.5],
            default_telemetry: crate::runner::SampleTelemetry {
                virtual_ns: 5.0e8,
                regions: 12,
                breakdown: omptel::Breakdown {
                    compute_ns: 4.0e8,
                    imbalance_ns: 1.0e8,
                    ..omptel::Breakdown::default()
                },
                energy: omptel::EnergyBreakdown::default(),
            },
        }];
        let mut buf = Vec::new();
        write_raw_json(&batches, &mut buf).unwrap();
        let back = read_raw_json(&buf).unwrap();
        assert_eq!(back, batches);
    }

    /// Byte identity of the JSON exports across commits: the digests of
    /// `raw_batches.json` and `provenance.jsonl` over three real batches
    /// (failed reps and default rows included) are pinned to the bytes
    /// the published artifacts carry. An encoder change that moves a
    /// single byte fails here, not in a downstream `cmp`.
    #[test]
    fn export_bytes_are_pinned() {
        use crate::provenance::{provenance_of, write_provenance_jsonl};
        use crate::registry::fnv_bytes;
        use crate::spec::{Scope, SweepSpec};
        let spec = SweepSpec {
            scope: Scope::Strided(60),
            reps: 3,
            seed: 23,
            failure_rate: 0.1,
            ..SweepSpec::default()
        };
        let batches: Vec<SettingData> = [
            (Arch::Skylake, "cg"),
            (Arch::Milan, "alignment"),
            (Arch::A64fx, "lulesh"),
        ]
        .into_iter()
        .map(|(arch, name)| {
            let (app, setting, idx) = crate::runner::work_list(arch, spec.roster)
                .into_iter()
                .find(|(app, _, _)| app.name == name)
                .expect("app on arch");
            crate::runner::sweep_setting(arch, app, setting, idx, &spec)
        })
        .collect();
        let nan_reps: usize = batches
            .iter()
            .flat_map(|b| &b.samples)
            .map(|s| s.runtimes.iter().filter(|r| r.is_nan()).count())
            .sum();
        assert!(nan_reps > 0, "failure injection never fired");

        let mut raw = Vec::new();
        write_raw_json(&batches, &mut raw).unwrap();
        let mut prov = Vec::new();
        write_provenance_jsonl(&provenance_of(&batches, &spec), &mut prov).unwrap();
        for bytes in [&raw, &prov] {
            let text = std::str::from_utf8(bytes).unwrap();
            assert!(
                text.contains(",null") || text.contains("[null"),
                "NaN reps encode as null"
            );
        }
        assert_eq!((raw.len(), fnv_bytes(&raw)), (269_997, 7650164723054355712));
        assert_eq!(
            (prov.len(), fnv_bytes(&prov)),
            (255_459, 1013626324183646743)
        );
    }
}
