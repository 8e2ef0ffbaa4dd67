//! The fault injector: applies a [`FaultPlan`] to a machine in virtual time.

use hetsim::engine::{ProcCtx, Simulation};
use hetsim::time::SimTime;
use hetsim::topology::Machine;

use crate::plan::{FaultAction, FaultPlan};

/// Installs the plan's seed on the machine's fault plane. Called once
/// before the simulation starts so the same seed always produces the same
/// loss/duplication pattern.
pub fn install(machine: &Machine, plan: &FaultPlan) {
    machine.fault_plane().reseed(plan.seed());
}

/// Applies one action to the machine's fault plane at `now`.
pub fn apply(machine: &Machine, now: SimTime, action: &FaultAction) {
    let plane = machine.fault_plane();
    match *action {
        FaultAction::KillPu(pu) => plane.kill_pu(now, pu),
        FaultAction::RevivePu(pu) => plane.revive_pu(now, pu),
        FaultAction::HangPu(pu, for_) => plane.hang_pu(now, pu, for_),
        FaultAction::DegradeLink(a, b, factor) => plane.degrade_link(now, a, b, factor),
        FaultAction::HealLink(a, b) => plane.heal_link(now, a, b),
        FaultAction::Partition(a, b) => plane.partition(now, a, b),
        FaultAction::HealPartition(a, b) => plane.heal_partition(now, a, b),
        FaultAction::FifoLoss(from, to, p) => plane.set_fifo_loss(now, from, to, p),
        FaultAction::FifoDup(from, to, p) => plane.set_fifo_dup(now, from, to, p),
        FaultAction::FailFpgaLoads(pu, count) => plane.fail_fpga_loads(now, pu, count),
        // Node-level verbs expand against the machine's topology: plans can
        // name a node without spelling out which PUs it holds.
        FaultAction::KillNode(node) => {
            for pu in machine.node_pus(node) {
                plane.kill_pu(now, pu);
            }
        }
        FaultAction::ReviveNode(node) => {
            for pu in machine.node_pus(node) {
                plane.revive_pu(now, pu);
            }
        }
        FaultAction::PartitionNodes(a, b) => {
            if let Some((ha, hb)) = node_hosts(machine, a, b) {
                plane.partition(now, ha, hb);
            }
        }
        FaultAction::HealNodes(a, b) => {
            if let Some((ha, hb)) = node_hosts(machine, a, b) {
                plane.heal_partition(now, ha, hb);
            }
        }
        // Not a hardware fault: nothing to flip on the fault plane. The
        // flood is realised by `spawn_injector_with_sink`; without a sink
        // the event is a logged no-op, so hardware-only harnesses can
        // replay mixed plans unchanged.
        FaultAction::FloodTenant { .. } => {}
    }
}

/// Both nodes' host PUs, or `None` when either node is not in the machine
/// (a plan written for a bigger rack is a no-op on the smaller one).
fn node_hosts(
    machine: &Machine,
    a: hetsim::pu::NodeId,
    b: hetsim::pu::NodeId,
) -> Option<(hetsim::pu::PuId, hetsim::pu::PuId)> {
    let count = machine.node_count() as u16;
    (a.raw() < count && b.raw() < count).then(|| (machine.node_host(a), machine.node_host(b)))
}

/// Installs the plan and spawns the injector process: it sleeps to each
/// event's virtual time and applies it, in schedule order.
pub fn spawn_injector(sim: &mut Simulation, machine: &Machine, plan: &FaultPlan) {
    install(machine, plan);
    let machine = machine.clone();
    let plan = plan.clone();
    sim.spawn("chaos-injector", move |ctx: &mut ProcCtx| {
        for event in plan.events() {
            if event.at > ctx.now() {
                ctx.sleep(event.at - ctx.now());
            }
            apply(&machine, ctx.now(), &event.action);
        }
    });
}

/// Like [`spawn_injector`], but realises `flood-tenant` events: each one
/// gets its own flooder process driving seeded open-loop Poisson arrivals
/// into `sink` (typically a gateway submit on the antagonist tenant's
/// behalf), so a long flood never delays later fault events.
///
/// The arrival pattern is a pure function of the plan seed, the tenant id
/// and the event's position in the plan — replays are byte-identical, and
/// two floods in one plan don't share an RNG stream.
///
/// Hardware events still run on the plain injector; `flood-tenant` events
/// reach [`apply`] as logged no-ops there.
pub fn spawn_injector_with_sink<F>(
    sim: &mut Simulation,
    machine: &Machine,
    plan: &FaultPlan,
    sink: F,
) where
    F: FnMut(&mut ProcCtx, u32, u64) + Clone + Send + 'static,
{
    for (idx, event) in plan.events().iter().enumerate() {
        let FaultAction::FloodTenant { tenant, rate, dur } = event.action.clone() else {
            continue;
        };
        let start = event.at;
        let seed = plan.seed() ^ u64::from(tenant).rotate_left(17) ^ ((idx as u64) << 1);
        let mut sink = sink.clone();
        sim.spawn(&format!("chaos-flood-t{tenant}"), move |ctx: &mut ProcCtx| {
            if start > ctx.now() {
                ctx.sleep(start - ctx.now());
            }
            let mut arrivals = workloads::generator::PoissonArrivals::new(rate, seed);
            let end = start + dur;
            let mut sent = 0u64;
            loop {
                let at = start + (arrivals.next_arrival() - SimTime::ZERO);
                if at >= end {
                    break;
                }
                if at > ctx.now() {
                    ctx.sleep(at - ctx.now());
                }
                sink(ctx, tenant, sent);
                sent += 1;
            }
        });
    }
    spawn_injector(sim, machine, plan);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::time::SimDuration;

    #[test]
    fn injector_applies_events_at_their_virtual_times() {
        let machine = Machine::paper_cpu_dpu_server();
        let plan = FaultPlan::parse(
            "seed 9\n\
             at 2ms degrade pu0 pu1 x3\n\
             at 5ms kill pu1\n\
             at 8ms revive pu1\n",
        )
        .unwrap();
        let mut sim = Simulation::new();
        spawn_injector(&mut sim, &machine, &plan);
        let machine2 = machine.clone();
        sim.spawn("observer", move |ctx| {
            let plane = machine2.fault_plane();
            ctx.sleep(SimDuration::from_millis(3));
            assert_eq!(plane.link_factor(hetsim::pu::PuId(0), hetsim::pu::PuId(1)), 3.0);
            assert!(!plane.is_dead(hetsim::pu::PuId(1)));
            ctx.sleep(SimDuration::from_millis(3));
            assert!(plane.is_dead(hetsim::pu::PuId(1)));
            ctx.sleep(SimDuration::from_millis(3));
            assert!(!plane.is_dead(hetsim::pu::PuId(1)));
        });
        sim.run().unwrap();
        assert_eq!(machine.fault_plane().seed(), 9);
        let log = machine.fault_plane().event_log();
        assert_eq!(log.len(), 3);
        assert!(log[0].contains("degrade"), "{log:?}");
        assert!(log[1].starts_with("[     5000000ns]"), "{log:?}");
    }

    #[test]
    fn flood_tenant_drives_a_seeded_replayable_arrival_stream() {
        use std::sync::{Arc, Mutex};

        fn run(plan_text: &str) -> Vec<(u64, u32, u64)> {
            let machine = Machine::paper_cpu_dpu_server();
            let plan = FaultPlan::parse(plan_text).unwrap();
            let mut sim = Simulation::new();
            let log: Arc<Mutex<Vec<(u64, u32, u64)>>> = Arc::new(Mutex::new(Vec::new()));
            let sink_log = Arc::clone(&log);
            spawn_injector_with_sink(&mut sim, &machine, &plan, move |ctx, tenant, i| {
                sink_log.lock().unwrap().push((ctx.now().as_nanos(), tenant, i));
            });
            sim.run().unwrap();
            Arc::try_unwrap(log).unwrap().into_inner().unwrap()
        }

        let text = "seed 11\nat 1ms flood-tenant t3 2000 50ms\nat 10ms kill pu1\n";
        let a = run(text);
        let b = run(text);
        assert_eq!(a, b, "same seed must replay byte-identically");
        assert!(a.len() > 50, "2000 rps for 50ms should land ~100 arrivals, got {}", a.len());
        let start = SimTime::ZERO + SimDuration::from_millis(1);
        let end = start + SimDuration::from_millis(50);
        for (at, tenant, _) in &a {
            assert_eq!(*tenant, 3);
            let at = SimTime::ZERO + SimDuration::from_nanos(*at);
            assert!(at >= start && at < end, "arrival outside the flood window");
        }
        assert_eq!(a.last().unwrap().2 as usize, a.len() - 1, "arrival index is dense");
        // A different seed shifts the arrival pattern.
        let c = run("seed 12\nat 1ms flood-tenant t3 2000 50ms\nat 10ms kill pu1\n");
        assert_ne!(a, c, "different seed must change the arrival pattern");
    }

    #[test]
    fn node_verbs_expand_against_the_rack_topology() {
        use hetsim::pu::{NodeId, PuId};
        // rack(2, 2): node 0 = {pu0..pu2}, node 1 = {pu3..pu5}.
        let machine = Machine::rack(2, 2);
        let plan = FaultPlan::parse(
            "seed 3\n\
             at 1ms partition-nodes node0 node1\n\
             at 2ms kill-node node1\n\
             at 3ms revive-node node1\n\
             at 4ms heal-nodes node0 node1\n",
        )
        .unwrap();
        let mut sim = Simulation::new();
        spawn_injector(&mut sim, &machine, &plan);
        let m = machine.clone();
        sim.spawn("observer", move |ctx| {
            let plane = m.fault_plane();
            ctx.sleep(SimDuration::from_nanos(1_500_000));
            // Fabric cut: every cross-node path is severed, same-node fine.
            assert!(m.path_cut(PuId(1), PuId(4)));
            assert!(!m.path_cut(PuId(1), PuId(2)));
            ctx.sleep(SimDuration::from_millis(1));
            for pu in m.node_pus(NodeId(1)) {
                assert!(plane.is_dead(pu), "{pu} should be dead with its node");
            }
            assert!(!plane.is_dead(PuId(0)), "node 0 survives");
            ctx.sleep(SimDuration::from_millis(1));
            assert!(!plane.is_dead(PuId(3)));
            ctx.sleep(SimDuration::from_millis(1));
            assert!(!m.path_cut(PuId(1), PuId(4)), "fabric healed");
        });
        sim.run().unwrap();
        // A node-sized plan against a single machine is a no-op, not a panic.
        let single = Machine::paper_cpu_dpu_server();
        apply(&single, SimTime::ZERO, &FaultAction::PartitionNodes(NodeId(0), NodeId(1)));
        apply(&single, SimTime::ZERO, &FaultAction::KillNode(NodeId(1)));
        assert!(!single.fault_plane().is_dead(PuId(0)));
    }
}
