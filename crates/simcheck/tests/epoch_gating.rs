//! The epoch-gated oracles against the audited full check on scenarios
//! that do violate an invariant. On every schedule both must report the
//! same violation at the same first violating step, so skipping the steps
//! whose epochs stayed put can neither hide a violation nor delay it.

use hetsim::engine::Simulation;
use hetsim::pu::PuId;
use hetsim::time::SimDuration;
use hetsim::topology::Machine;
use molecule_simcheck::explore::Check;
use molecule_simcheck::OracleConfig;
use molecule_state::{RegionSpec, StateError, StateLayer};
use xpu_shim::{Perm, ShimCluster, ShimConfig};

mod common;
use common::{assert_gating_sound, Watch};

/// Three identical owners each make a FIFO, churn WRITE grants on it, then
/// hand OWNER to an heir. That is legal, but it breaks the ownership
/// partition the default [`OracleConfig`] demands, at a step that depends
/// on the schedule.
fn owner_handoff_scenario(sim: &mut Simulation, watch: Watch) -> Check {
    let cluster = ShimCluster::deploy(Machine::paper_cpu_dpu_server(), ShimConfig::default());
    let oracle = watch.cluster(sim, &cluster, OracleConfig::default());
    for i in 0..3 {
        let cl = cluster.clone();
        sim.spawn(&format!("owner-{i}"), move |ctx| {
            let shim = cl.shim_on(PuId(0)).unwrap();
            let me = shim.attach_process();
            let heir = cl.shim_on(PuId(1)).unwrap().attach_process();
            let fifo = shim.xfifo_init(ctx, me, format!("handoff-{i}")).unwrap();
            for _ in 0..3 {
                shim.grant_cap(ctx, me, heir, fifo.obj(), Perm::WRITE).unwrap();
                shim.revoke_cap(ctx, me, heir, fifo.obj(), Perm::WRITE).unwrap();
            }
            shim.grant_cap(ctx, me, heir, fifo.obj(), Perm::OWNER).unwrap();
        });
    }
    Box::new(move |result| {
        result.as_ref().map_err(|e| e.to_string())?;
        oracle.verdict(false)
    })
}

/// Two pipelines commit and pull one region each; after its last pull,
/// one of them flips a byte of its replica's committed cache without
/// bumping the version: divergent pages the state oracle must catch.
fn flipped_byte_scenario(sim: &mut Simulation, watch: Watch) -> Check {
    let cluster = ShimCluster::deploy(Machine::paper_cpu_dpu_server(), ShimConfig::default());
    let layer = StateLayer::new(cluster.clone());
    let oracle = watch.state(sim, &cluster, &layer, OracleConfig::default());
    for pipeline in 0..2 {
        let l = layer.clone();
        sim.spawn(&format!("pipeline-{pipeline}"), move |ctx| -> Result<(), StateError> {
            let name = format!("grid-{pipeline}");
            l.create_region(ctx, PuId(0), RegionSpec::new(&name, 8))?;
            l.attach(ctx, PuId(1), &name)?;
            for round in 1..=2u8 {
                l.write(ctx, PuId(0), &name, 0, &[round; 4096], None)?;
                l.commit(ctx, PuId(0), &name)?;
                l.pull(ctx, PuId(1), &name)?;
                ctx.sleep(SimDuration::from_micros(20));
            }
            if pipeline == 1 {
                l.flip_committed_byte_for_test(PuId(1), &name, 4096)?;
            }
            ctx.sleep(SimDuration::from_micros(20));
            Ok(())
        });
    }
    Box::new(move |result| {
        result.as_ref().map_err(|e| e.to_string())?;
        oracle.verdict(false)
    })
}

#[test]
fn gated_and_full_checks_agree_on_a_cluster_violation() {
    for verdict in assert_gating_sound(owner_handoff_scenario) {
        let err = verdict.unwrap_err();
        assert!(err.starts_with("[step] ownership not a partition"), "{err}");
        assert!(err.contains("(first violation at step "), "{err}");
    }
}

#[test]
fn gated_and_full_checks_agree_on_a_state_violation() {
    for verdict in assert_gating_sound(flipped_byte_scenario) {
        let err = verdict.unwrap_err();
        assert!(err.starts_with("[step] region grid-1: divergent pages"), "{err}");
        assert!(err.contains("(first violation at step "), "{err}");
    }
}
