//! Batch-frame duplicated delivery under schedule exploration: every
//! host→DPU frame (the batched Cfork+Ping, and every retry) is delivered
//! twice, under hundreds of tie-break interleavings. The executors'
//! reply-cache dedup must keep each Cfork exactly-once — one started
//! instance per manager, never two — on every schedule.
//!
//! Two identical managers drive one executor each (the machine has two
//! BlueField DPUs) in lockstep: same ops, same charged costs, so every
//! step of the pipeline is a same-instant tie for the explorer to flip.

use hetsim::engine::Simulation;
use hetsim::pu::{PuId, PuKind};
use hetsim::time::SimDuration;
use hetsim::topology::Machine;
use molecule_core::executor::{launch_executor, ExecutorCommand, ExecutorReply};
use molecule_core::runtime::{Molecule, MoleculeConfig};
use molecule_core::FunctionDef;
use molecule_simcheck::explore::{explore, Check, ExploreOptions};
use vsandbox::spec::{FuncId, LangRuntime};

fn batch_dup_scenario(sim: &mut Simulation) -> Check {
    let m = Molecule::launch(Machine::paper_cpu_dpu_server(), MoleculeConfig::default());
    m.register_function(
        FunctionDef::builder("img", LangRuntime::Python)
            .profiles(&[PuKind::Cpu, PuKind::Dpu])
            .exec_ms(5.0)
            .build(),
    );

    let managers: Vec<_> = [PuId(1), PuId(2)]
        .into_iter()
        .map(|pu| {
            let m2 = m.clone();
            sim.spawn(&format!("manager-{}", pu.0), move |ctx| {
                m2.prepare_template(ctx, pu, LangRuntime::Python)
                    .map_err(|e| format!("template: {e}"))?;
                let exec = launch_executor(&m2, ctx, pu).map_err(|e| format!("launch: {e}"))?;
                // Every host->DPU frame is delivered twice from here on:
                // the executor sees the whole batch again and must replay
                // cached replies, not re-run the commands.
                m2.machine().fault_plane().set_fifo_dup(ctx.now(), PuId(0), pu, 1.0);
                let replies = exec
                    .call_batch(
                        ctx,
                        &[
                            ExecutorCommand::Cfork { func: FuncId::new("img") },
                            ExecutorCommand::Ping,
                        ],
                        SimDuration::from_millis(500),
                    )
                    .map_err(|e| format!("batch: {e}"))?;
                m2.machine().fault_plane().set_fifo_dup(ctx.now(), PuId(0), pu, 0.0);
                exec.shutdown(ctx, SimDuration::from_millis(500))
                    .map_err(|e| format!("shutdown: {e}"))?;
                Ok::<_, String>(replies)
            })
        })
        .collect();

    Box::new(move |result| {
        result.as_ref().map_err(|e| e.to_string())?;
        for manager in &managers {
            let replies = manager.take_result().expect("manager finished")?;
            if !matches!(replies[0], ExecutorReply::Started { .. }) {
                return Err(format!("cfork reply was {:?}", replies[0]));
            }
            if !matches!(replies[1], ExecutorReply::Pong) {
                return Err(format!("ping reply was {:?}", replies[1]));
            }
        }
        let instances = m.instance_count();
        if instances != managers.len() {
            return Err(format!(
                "exactly-once broken: {} duplicated batches started {instances} instances",
                managers.len()
            ));
        }
        if m.cluster().stats().duplicated_messages == 0 {
            return Err("the dup fault never fired — the scenario tested nothing".into());
        }
        Ok(())
    })
}

#[test]
fn batched_cfork_is_exactly_once_under_duplicated_delivery() {
    let opts = ExploreOptions { trials: 256, seed: 47, ..ExploreOptions::default() };
    let report = explore(&opts, batch_dup_scenario);
    report.assert_clean();
    assert!(
        report.distinct_schedules >= 200,
        "only {} distinct schedules in {} trials",
        report.distinct_schedules,
        report.trials_run
    );
}
