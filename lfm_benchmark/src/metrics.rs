//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` at the repository
//! root is [`contract_json`] verbatim; a unit test holds the two together.

use crate::workloads::Workload;

/// Which clock a number is on. *Sim* is simulated time or an exact count
/// from a report: a claim about the modelled stack, identical on every
/// run of one seed. *Host* is wall-clock or memory of this process: a
/// claim about the engine, noisy, reported as a median with quartiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Host,
    Sim,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// Share of the baseline's median by which the metric may get worse
    /// before a change counts as a regression. For sim-clock metrics it
    /// covers the spread across seeds; at one seed they compare exactly.
    pub bound: f64,
    /// Absolute difference below which `--compare` never reports a
    /// regression, whatever the ratio.
    pub floor: f64,
}

/// How long one run measures (`--seconds` default, `run_seconds`).
pub const RUN_SECONDS: u64 = 10;

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        clock: Clock::Host,
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        clock: Clock::Host,
        better: Better::Lower,
        bound: 0.25,
        floor: 0.02,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        clock: Clock::Host,
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "sim_mean_s",
        unit: "s",
        clock: Clock::Sim,
        better: Better::Lower,
        bound: 0.10,
        floor: 0.0,
    },
    EndToEnd {
        name: "sim_p99_s",
        unit: "s",
        clock: Clock::Sim,
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "sim_goodput_per_s",
        unit: "op/s",
        clock: Clock::Sim,
        better: Better::Higher,
        bound: 0.10,
        floor: 0.0,
    },
    EndToEnd {
        name: "success_fraction",
        unit: "ratio",
        clock: Clock::Sim,
        better: Better::Higher,
        bound: 0.05,
        floor: 0.001,
    },
    EndToEnd {
        name: "sim_ops",
        unit: "op",
        clock: Clock::Sim,
        better: Better::Higher,
        bound: 0.05,
        floor: 0.0,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
}

const fn host(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        clock: Clock::Host,
        better: Better::Lower,
    }
}

const fn sim(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        clock: Clock::Sim,
        better,
    }
}

/// Layer = crate.module. A `--trace 1` run prints every one of these;
/// those the workload at hand does not exercise read 0.
pub const PER_LAYER: &[PerLayer] = &[
    host("simcluster.event.hold_ns_per_op", "ns"),
    host("simcluster.event.share_of_wall", "ratio"),
    host("simcluster.metrics.samples_record_query_ns", "ns"),
    host("simcluster.metrics.sparse_hist_record_ns", "ns"),
    host("monitor.sim.run_ns_per_task", "ns"),
    host("workqueue.allocate.replay_s", "s"),
    host("workqueue.allocate.ns_per_completion", "ns"),
    host("workqueue.allocate.scaling_exponent", "log2"),
    host("workqueue.allocate.share_of_wall", "ratio"),
    sim("workqueue.allocate.label_changes", "count", Better::Lower),
    host("workqueue.master.wall_us_per_task", "us"),
    host("workqueue.master.scaling_exponent", "log2"),
    host("workqueue.master.residual_s", "s"),
    sim("workqueue.master.events", "count", Better::Lower),
    sim("workqueue.master.makespan_s", "s", Better::Lower),
    sim("workqueue.master.attempts", "count", Better::Lower),
    sim("workqueue.master.retried_tasks", "count", Better::Lower),
    sim("workqueue.master.cache_hits", "count", Better::Higher),
    sim("workqueue.master.cache_misses", "count", Better::Lower),
    sim("workqueue.master.net_bytes", "B", Better::Lower),
    sim("workqueue.master.lease_reclaims", "count", Better::Lower),
    sim(
        "workqueue.master.infra_retried_tasks",
        "count",
        Better::Lower,
    ),
    host("workqueue.journal.overhead_s", "s"),
    host("workqueue.journal.overhead_share", "ratio"),
    sim("workqueue.journal.bytes_per_op", "B", Better::Lower),
    sim("workqueue.journal.replayed_events", "count", Better::Lower),
    sim("workqueue.journal.recoveries", "count", Better::Higher),
    host("workqueue.federation.partition_s", "s"),
    host("workqueue.federation.shard_step_s", "s"),
    host("workqueue.federation.driver_overhead_s", "s"),
    host("workqueue.federation.driver_overhead_share", "ratio"),
    sim("workqueue.federation.steals", "count", Better::Lower),
    sim("workqueue.federation.stolen_tasks", "count", Better::Lower),
    sim("workqueue.federation.events_total", "count", Better::Lower),
    host("workqueue.streaming.submit_us_per_task", "us"),
    host("workqueue.streaming.run_until_us_per_tick_p50", "us"),
    host("workqueue.streaming.run_until_us_per_tick_p99", "us"),
    host("workqueue.streaming.take_results_us_per_tick", "us"),
    host("workqueue.streaming.finish_s", "s"),
    host("workqueue.streaming.tick_cost_growth", "ratio"),
    host("workqueue.streaming.direct_wall_s", "s"),
    host("serving.gateway.wall_us_per_invocation", "us"),
    host("serving.gateway.over_streaming_s", "s"),
    host("serving.arrivals.ns_per_arrival", "ns"),
    host("serving.fair.ns_per_pick", "ns"),
    host("serving.warmpool.ns_per_acquire", "ns"),
    sim("serving.admission.rejected_rate", "count", Better::Lower),
    sim(
        "serving.admission.rejected_queue_full",
        "count",
        Better::Lower,
    ),
    sim("serving.admission.shed", "count", Better::Lower),
    sim("serving.warmpool.hit_rate", "ratio", Better::Higher),
    sim("serving.gateway.batches_submitted", "count", Better::Lower),
    sim("serving.gateway.recoveries", "count", Better::Higher),
    sim("serving.gateway.lost", "count", Better::Lower),
    sim("serving.control.actions", "count", Better::Lower),
    host("telemetry.emit.ns_per_event", "ns"),
    host("telemetry.decode.ns_per_event", "ns"),
    host("telemetry.tail.ns_per_event", "ns"),
    host("telemetry.export.chrome_ns_per_event", "ns"),
    host("telemetry.export.perfetto_ns_per_event", "ns"),
    host("telemetry.bytes_per_event", "B"),
    sim("telemetry.events_per_op", "count", Better::Lower),
    sim("telemetry.dropped", "count", Better::Lower),
    host("telemetry.overhead_share", "ratio"),
    host("pyenv.analyze.us_per_source", "us"),
    host("pyenv.resolve.us_per_resolve", "us"),
    host("pyenv.pack.us_per_pack", "us"),
    host("dataflow.lower.us_per_task", "us"),
    host("workloads.build_s", "s"),
    host("funcx.activation.us_per_call", "us"),
    sim("core.experiments.jobs", "count", Better::Higher),
    sim("core.experiments.grid_tasks", "count", Better::Higher),
    host("core.experiments.us_per_job", "us"),
    PerLayer {
        name: "core.parallel.speedup",
        unit: "ratio",
        clock: Clock::Host,
        better: Better::Higher,
    },
    sim(
        "core.experiments.fig6_auto_over_oracle",
        "ratio",
        Better::Lower,
    ),
    sim(
        "core.experiments.fig6_unmanaged_over_oracle",
        "ratio",
        Better::Higher,
    ),
    sim(
        "core.experiments.fig6_auto_retry_fraction",
        "ratio",
        Better::Lower,
    ),
    host("bench.setup_self_s", "s"),
    host("bench.run_self_s", "s"),
    host("bench.check_self_s", "s"),
    host("bench.report_self_s", "s"),
    host("trace_overhead_pct", "%"),
];

impl Workload {
    /// Why the workload exists, on one line (`BENCHMARK.json`'s `why`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::MasterBatch => {
                "50k independent 1-core tasks on 256x16 cores under Auto: the engine hot path \
                 alone (calendar, dispatch, place, allocator labelling); journal and telemetry off"
            }
            Workload::MasterDagChaos => {
                "48k-task drug-screening DAG on 14 Theta nodes with faults, 4 master crashes, \
                 journal+snapshots and telemetry: dependencies, retries, replay, the durable path"
            }
            Workload::Federation8Shard => {
                "100k tasks of the master_batch shape over 8 shards: root-driver cost (min-scan, \
                 steal probe), little allocator work per shard"
            }
            Workload::ServingSteady => {
                "gateway open loop at 175 inv/s (0.7x capacity) for 200 s, no journal, no \
                 telemetry: streaming master and warm pool below capacity"
            }
            Workload::ServingOverload => {
                "same gateway at 380 inv/s (1.5x) with SLO alerts, control, journal and 2 master \
                 crashes: admission, shedding, fair share, recovery"
            }
            Workload::PaperFigs => {
                "fig6-fig9 grids for 40 seeds under all four strategies: the paper reproduction, \
                 many small runs, the only multi-threaded workload"
            }
        }
    }
}

/// `BENCHMARK.json`, byte for byte.
#[cfg(test)]
pub fn contract_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"lfm_benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"lfm_benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    s.push_str("  \"workloads\": [\n");
    s.push_str(&rows(
        Workload::ALL
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                    w.name(),
                    w.why()
                )
            })
            .collect(),
    ));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    s.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.name(),
                    m.bound
                )
            })
            .collect(),
    ));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    s.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.name()
                )
            })
            .collect(),
    ));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_limits_follow_the_contract() {
        let mut seen = BTreeSet::new();
        for w in Workload::ALL {
            assert!(name_ok(w.name()), "{}", w.name());
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert!(seen.insert(w.name()), "duplicate name {}", w.name());
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        assert!((2..=8).contains(&Workload::ALL.len()));
        assert!(PER_LAYER.len() <= 128);
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(!name_ok("bad name") && !name_ok("-x") && !name_ok("a/b"));
    }

    #[test]
    fn benchmark_json_is_the_contract() {
        let text = contract_json();
        lfm_core::telemetry::export::validate_json(&text).unwrap();
        assert!(text.len() < 64 * 1024);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk, text,
            "BENCHMARK.json is out of step with metrics.rs; it should read:\n{text}"
        );
    }
}
