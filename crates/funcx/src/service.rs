//! The funcX service: registered functions executed on endpoints, with the
//! LFM execution model swapped in for containers (§VI-C4).
//!
//! "When functions are to be executed funcX simply passes the serialized
//! function (and its list of dependencies) to our system, using LFMs in
//! place of containers." Static analysis and environment distribution are
//! provided by funcX itself here (the dependency list attached at
//! registration), so the endpoint only prepares the environment file and
//! runs the batch.

use crate::container::{ActivationModel, ActivationTech};
use crate::registry::{FunctionId, FunctionRegistry};
use lfm_monitor::sim::SimTaskProfile;
use lfm_pyenv::environment::Environment;
use lfm_pyenv::index::PackageIndex;
use lfm_pyenv::pack::pack_cached;
use lfm_pyenv::requirements::{Requirement, RequirementSet};
use lfm_pyenv::resolve::resolve_cached;
use lfm_simcluster::node::NodeSpec;
use lfm_simcluster::rng::SimRng;
use lfm_workqueue::allocate::Strategy;
use lfm_workqueue::files::FileRef;
use lfm_workqueue::master::{run_workload, MasterConfig, RunReport};
use lfm_workqueue::task::{TaskId, TaskSpec};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Where a batch executes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Endpoint {
    pub name: String,
    pub node: NodeSpec,
    pub workers: u32,
}

impl Endpoint {
    pub fn new(name: impl Into<String>, node: NodeSpec, workers: u32) -> Self {
        Endpoint {
            name: name.into(),
            node,
            workers,
        }
    }
}

/// How the endpoint contains function invocations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// Lightweight function monitors with the given allocation strategy.
    Lfm(Strategy),
    /// Conventional containers: per-invocation cold-start activation, no
    /// function-level resource management (whole-worker allocations).
    Container(ActivationTech),
    /// Containers with reuse: the first invocation on each worker pays the
    /// cold start, later ones only the warm overhead. Still unmanaged.
    ContainerWarm(ActivationTech),
}

/// The service.
pub struct FuncXService {
    pub index: Arc<PackageIndex>,
}

impl Default for FuncXService {
    fn default() -> Self {
        Self::new()
    }
}

impl FuncXService {
    pub fn new() -> Self {
        FuncXService {
            index: PackageIndex::builtin_shared(),
        }
    }

    /// Build the packed-environment input file for a registered function
    /// from its dependency list (funcX supplies the list; we resolve+pack).
    pub fn environment_for(
        &self,
        registry: &FunctionRegistry,
        id: FunctionId,
    ) -> Result<FileRef, String> {
        let f = registry
            .get(id)
            .ok_or_else(|| format!("unknown function {id}"))?;
        let mut reqs = RequirementSet::new();
        reqs.add(Requirement::any("python"));
        for m in &f.dependencies {
            let dist = self.index.dist_for_module(m).map_err(|e| e.to_string())?;
            reqs.add(Requirement::any(dist));
        }
        let resolution = resolve_cached(&self.index, &reqs).map_err(|e| e.to_string())?;
        let env = Environment::from_resolution(
            format!("{}-env", f.name),
            format!("/envs/{}", f.name),
            &self.index,
            &resolution,
        )
        .map_err(|e| e.to_string())?;
        let packed = pack_cached(&env);
        Ok(FileRef::environment(
            format!("{}-env.tar.gz", f.name),
            packed.archive_bytes(),
            packed.installed_bytes(),
            packed.file_count(),
            packed.relocation_ops("/scratch"),
        ))
    }

    /// Execute `n_tasks` invocations of `id` on `endpoint` under `mode`.
    ///
    /// `profile` is the function's true per-invocation behaviour (e.g. the
    /// Keras-ResNet classification task). Container mode adds a sampled
    /// activation latency to every invocation and disables function-level
    /// management.
    #[allow(clippy::too_many_arguments)]
    pub fn run_batch(
        &self,
        registry: &FunctionRegistry,
        id: FunctionId,
        n_tasks: u64,
        endpoint: &Endpoint,
        mode: &ExecutionMode,
        profile: SimTaskProfile,
        input_bytes: u64,
        seed: u64,
    ) -> Result<RunReport, String> {
        let f = registry
            .get(id)
            .ok_or_else(|| format!("unknown function {id}"))?;
        let env_file = self.environment_for(registry, id)?;
        Ok(Self::run_batch_with_env(
            &f.name,
            &env_file,
            n_tasks,
            endpoint,
            mode,
            profile,
            input_bytes,
            seed,
        ))
    }

    /// [`run_batch`](Self::run_batch) for a function whose packed
    /// environment is already in hand ([`environment_for`](Self::environment_for)):
    /// a sweep over batch sizes and modes prepares it once, not per batch.
    #[allow(clippy::too_many_arguments)]
    pub fn run_batch_with_env(
        function: &str,
        env_file: &FileRef,
        n_tasks: u64,
        endpoint: &Endpoint,
        mode: &ExecutionMode,
        profile: SimTaskProfile,
        input_bytes: u64,
        seed: u64,
    ) -> RunReport {
        let mut rng = SimRng::seeded(seed);
        enum Overhead {
            None,
            ColdEvery(ActivationModel),
            /// Cold for the first `pool` invocations (one per worker), warm
            /// for the rest — the container-reuse approximation.
            WarmAfter(ActivationModel, u64),
        }
        let (strategy, overhead) = match mode {
            ExecutionMode::Lfm(s) => (s.clone(), Overhead::None),
            ExecutionMode::Container(tech) => (
                Strategy::Unmanaged,
                Overhead::ColdEvery(ActivationModel::for_tech(*tech)),
            ),
            ExecutionMode::ContainerWarm(tech) => (
                Strategy::Unmanaged,
                Overhead::WarmAfter(ActivationModel::for_tech(*tech), endpoint.workers as u64),
            ),
        };
        let tasks: Vec<TaskSpec> = (0..n_tasks)
            .map(|i| {
                let mut p = profile;
                match &overhead {
                    Overhead::None => {}
                    Overhead::ColdEvery(model) => p.duration_secs += model.sample(&mut rng),
                    Overhead::WarmAfter(model, pool) => {
                        p.duration_secs += if i < *pool {
                            model.sample(&mut rng)
                        } else {
                            model.sample_warm(&mut rng)
                        };
                    }
                }
                TaskSpec::new(
                    TaskId(i),
                    function.to_string(),
                    vec![
                        env_file.clone(),
                        FileRef::data(format!("img-{i}"), input_bytes),
                    ],
                    4 * 1024, // small classification result
                    p,
                )
            })
            .collect();
        let config = MasterConfig::new(strategy).with_seed(seed);
        run_workload(&config, tasks, endpoint.workers, endpoint.node)
    }

    /// Route a batch across heterogeneous endpoints — funcX "supports
    /// function execution on heterogeneous resources". Tasks split
    /// proportionally to each endpoint's packing capacity for this
    /// function's profile; each endpoint runs its share and the combined
    /// makespan is the slowest endpoint's.
    #[allow(clippy::too_many_arguments)]
    pub fn route_batch(
        &self,
        registry: &FunctionRegistry,
        id: FunctionId,
        n_tasks: u64,
        endpoints: &[Endpoint],
        mode: &ExecutionMode,
        profile: SimTaskProfile,
        input_bytes: u64,
        seed: u64,
    ) -> Result<Vec<(String, RunReport)>, String> {
        if endpoints.is_empty() {
            return Err("no endpoints".to_string());
        }
        let need = lfm_simcluster::node::Resources::new(
            profile.cores_used.ceil() as u32,
            profile.peak_memory_mb,
            profile.peak_disk_mb,
        );
        let capacities: Vec<u64> = endpoints
            .iter()
            .map(|ep| (need.copies_in(&ep.node.resources) as u64 * ep.workers as u64).max(1))
            .collect();
        let total: u64 = capacities.iter().sum();
        let mut shares: Vec<u64> = capacities.iter().map(|c| n_tasks * c / total).collect();
        // Distribute the rounding remainder to the largest endpoints.
        let mut assigned: u64 = shares.iter().sum();
        let mut order: Vec<usize> = (0..endpoints.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(capacities[i]));
        let mut cursor = 0;
        while assigned < n_tasks {
            shares[order[cursor % order.len()]] += 1;
            assigned += 1;
            cursor += 1;
        }
        let mut out = Vec::new();
        for (i, ep) in endpoints.iter().enumerate() {
            if shares[i] == 0 {
                continue;
            }
            let report = self.run_batch(
                registry,
                id,
                shares[i],
                ep,
                mode,
                profile,
                input_bytes,
                seed ^ (i as u64 + 1),
            )?;
            out.push((ep.name.clone(), report));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfm_pyenv::source::funcx_classify_source;
    use lfm_workqueue::allocate::AutoConfig;

    fn setup() -> (FuncXService, FunctionRegistry, FunctionId, Endpoint) {
        let svc = FuncXService::new();
        let mut reg = FunctionRegistry::new();
        let id = reg
            .register("classify_image", funcx_classify_source())
            .unwrap();
        let ep = Endpoint::new("theta-ep", NodeSpec::new(8, 32 * 1024, 64 * 1024), 4);
        (svc, reg, id, ep)
    }

    /// ResNet-50 inference: ~4 s, 1 core, ~2 GB resident.
    fn resnet_profile() -> SimTaskProfile {
        SimTaskProfile::new(4.0, 1.0, 2048, 512)
    }

    #[test]
    fn environment_includes_function_deps() {
        let (svc, reg, id, _) = setup();
        let env = svc.environment_for(&reg, id).unwrap();
        // TensorFlow's stack is huge; the archive must be substantial.
        assert!(
            env.size_bytes > 100 << 20,
            "archive {} too small",
            env.size_bytes
        );
    }

    #[test]
    fn lfm_auto_beats_containers() {
        let (svc, reg, id, ep) = setup();
        let lfm = svc
            .run_batch(
                &reg,
                id,
                64,
                &ep,
                &ExecutionMode::Lfm(Strategy::Auto(AutoConfig::default())),
                resnet_profile(),
                150 << 10,
                1,
            )
            .unwrap();
        let container = svc
            .run_batch(
                &reg,
                id,
                64,
                &ep,
                &ExecutionMode::Container(ActivationTech::Singularity),
                resnet_profile(),
                150 << 10,
                1,
            )
            .unwrap();
        assert!(
            container.makespan_secs > 2.0 * lfm.makespan_secs,
            "container {} vs lfm {}",
            container.makespan_secs,
            lfm.makespan_secs
        );
    }

    #[test]
    fn all_invocations_complete_in_both_modes() {
        let (svc, reg, id, ep) = setup();
        for mode in [
            ExecutionMode::Lfm(Strategy::Auto(AutoConfig::default())),
            ExecutionMode::Container(ActivationTech::Docker),
        ] {
            let rep = svc
                .run_batch(&reg, id, 20, &ep, &mode, resnet_profile(), 1 << 10, 2)
                .unwrap();
            assert_eq!(rep.abandoned_tasks, 0, "{mode:?}");
            let ok = rep
                .results
                .iter()
                .filter(|r| r.outcome.is_success())
                .count();
            assert_eq!(ok, 20, "{mode:?}");
        }
    }

    #[test]
    fn warm_containers_beat_cold_but_lfm_still_wins() {
        let (svc, reg, id, ep) = setup();
        let run = |mode: &ExecutionMode| {
            svc.run_batch(&reg, id, 96, &ep, mode, resnet_profile(), 150 << 10, 3)
                .unwrap()
                .makespan_secs
        };
        let cold = run(&ExecutionMode::Container(ActivationTech::Singularity));
        let warm = run(&ExecutionMode::ContainerWarm(ActivationTech::Singularity));
        let lfm = run(&ExecutionMode::Lfm(Strategy::Auto(AutoConfig::default())));
        assert!(warm < cold, "warm {warm} vs cold {cold}");
        // Even with container reuse, whole-worker allocation can't pack —
        // the LFM still wins.
        assert!(lfm < warm, "lfm {lfm} vs warm {warm}");
    }

    #[test]
    fn routing_splits_by_capacity_and_beats_single_endpoint() {
        let (svc, reg, id, _) = setup();
        let small = Endpoint::new("campus", NodeSpec::new(8, 32 * 1024, 64 * 1024), 2);
        let big = Endpoint::new("hpc", NodeSpec::new(64, 192 * 1024, 128 * 1024), 8);
        let mode = ExecutionMode::Lfm(Strategy::Auto(AutoConfig::default()));
        let routed = svc
            .route_batch(
                &reg,
                id,
                200,
                &[small.clone(), big.clone()],
                &mode,
                resnet_profile(),
                1 << 10,
                9,
            )
            .unwrap();
        assert_eq!(routed.len(), 2);
        let share =
            |name: &str| routed.iter().find(|(n, _)| n == name).unwrap().1.task_count as u64;
        assert_eq!(share("campus") + share("hpc"), 200);
        assert!(
            share("hpc") > 4 * share("campus"),
            "big endpoint should take most tasks: hpc={} campus={}",
            share("hpc"),
            share("campus")
        );
        // Combined (max endpoint makespan) beats the small endpoint alone.
        let combined = routed
            .iter()
            .map(|(_, r)| r.makespan_secs)
            .fold(0.0, f64::max);
        let alone = svc
            .run_batch(&reg, id, 200, &small, &mode, resnet_profile(), 1 << 10, 9)
            .unwrap()
            .makespan_secs;
        assert!(
            combined < alone,
            "routing {combined} vs small-alone {alone}"
        );
    }

    #[test]
    fn routing_handles_single_endpoint_and_errors() {
        let (svc, reg, id, ep) = setup();
        let mode = ExecutionMode::Lfm(Strategy::Unmanaged);
        let routed = svc
            .route_batch(&reg, id, 10, &[ep], &mode, resnet_profile(), 1, 3)
            .unwrap();
        assert_eq!(routed.len(), 1);
        assert_eq!(routed[0].1.task_count, 10);
        assert!(svc
            .route_batch(&reg, id, 10, &[], &mode, resnet_profile(), 1, 3)
            .is_err());
    }

    #[test]
    fn unknown_function_errors() {
        let (svc, reg, _, ep) = setup();
        let err = svc
            .run_batch(
                &reg,
                FunctionId(0xdead),
                1,
                &ep,
                &ExecutionMode::Lfm(Strategy::Unmanaged),
                resnet_profile(),
                1,
                0,
            )
            .unwrap_err();
        assert!(err.contains("unknown function"));
    }
}
