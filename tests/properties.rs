//! Property-based tests over the stack's core invariants (proptest).

use bytes::Bytes;
use hetsim::engine::Simulation;
use hetsim::fpga::{FpgaResources, ImageBuilder, ImageId, KernelSpec};
use hetsim::os::{LocalOs, MemoryLedger};
use hetsim::pu::{PuId, PuSpec};
use hetsim::time::{SimDuration, SimTime};
use molecule_core::keepalive::{GreedyDual, KeepAlivePolicy, Lru};
use proptest::prelude::*;
use vsandbox::spec::FuncId;
use xpu_shim::cap::{CapTable, ObjKind, Perm};
use xpu_shim::id::XpuPid;

proptest! {
    /// XpuPid encode/decode is a bijection.
    #[test]
    fn xpupid_roundtrip(pu in 0u16..=u16::MAX, local in 0u32..=u32::MAX) {
        let pid = XpuPid { pu: PuId(pu), local };
        prop_assert_eq!(XpuPid::decode(pid.encode()), pid);
    }

    /// Different (pu, local) pairs never collide in the encoding — the
    /// static-partitioning property that removes PID synchronization.
    #[test]
    fn xpupid_encoding_is_injective(a in any::<(u16, u32)>(), b in any::<(u16, u32)>()) {
        let pa = XpuPid { pu: PuId(a.0), local: a.1 };
        let pb = XpuPid { pu: PuId(b.0), local: b.1 };
        prop_assert_eq!(pa.encode() == pb.encode(), pa == pb);
    }

    /// FIFO transport preserves message bytes and order for arbitrary
    /// payload sequences.
    #[test]
    fn fifo_preserves_bytes_and_order(payloads in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..64), 1..12)) {
        let calib = hetsim::calib::Calibration::paper_server();
        let os = LocalOs::boot(&PuSpec::bluefield1(PuId(1)), calib.dpu_bf1_os, 1024);
        let mut sim = Simulation::new();
        let expected = payloads.clone();
        let h = sim.spawn("t", move |ctx| {
            let reader = os.create_fifo(ctx, "prop").unwrap();
            let writer = os.open_fifo("prop").unwrap();
            for p in &payloads {
                writer.write(ctx, Bytes::from(p.clone()));
            }
            let mut got = Vec::new();
            for _ in 0..payloads.len() {
                got.push(reader.read(ctx).unwrap().to_vec());
            }
            got
        });
        sim.run().unwrap();
        prop_assert_eq!(h.take_result().unwrap(), expected);
    }

    /// Capability grants never escalate beyond what an owner handed out,
    /// and revocation always removes exactly the revoked bits.
    #[test]
    fn caps_never_escalate(ops in proptest::collection::vec((0u8..3, 0u8..3), 1..40)) {
        let mut t = CapTable::new();
        let owner = XpuPid { pu: PuId(0), local: 1 };
        let peer = XpuPid { pu: PuId(1), local: 1 };
        t.register_process(owner);
        t.register_process(peer);
        let obj = t.create_object(owner, ObjKind::Ipc).unwrap();
        let perms = [Perm::READ, Perm::WRITE, Perm::READ | Perm::WRITE];
        let mut model = Perm::NONE;
        for (op, pidx) in ops {
            let p = perms[pidx as usize];
            match op {
                0 => { t.grant(owner, peer, obj, p).unwrap(); model |= p; }
                1 => { t.revoke(owner, peer, obj, p).unwrap(); model = model.without(p); }
                _ => {
                    // The peer can never grant to itself (not an owner).
                    let attempt = t.grant(peer, peer, obj, Perm::OWNER);
                    prop_assert!(attempt.is_err());
                }
            }
            prop_assert_eq!(t.perm(peer, obj), model);
            prop_assert!(!t.perm(peer, obj).contains(Perm::OWNER));
        }
    }

    /// Packed FPGA images never exceed device capacity, and the builder
    /// accepts exactly the sets that fit.
    #[test]
    fn image_packing_respects_capacity(luts in proptest::collection::vec(1_000u64..400_000, 1..12)) {
        let kernels: Vec<KernelSpec> = luts
            .iter()
            .enumerate()
            .map(|(i, &l)| KernelSpec {
                name: format!("k{i}"),
                resources: FpgaResources { luts: l, regs: 0, brams: 0, dsps: 0 },
            })
            .collect();
        let capacity = FpgaResources::F1_TOTAL;
        let total: u64 = luts.iter().sum::<u64>() + FpgaResources::WRAPPER_BASE.luts;
        let built = ImageBuilder::new(ImageId(1)).kernels(kernels).build(&capacity);
        if total <= capacity.luts {
            let img = built.unwrap();
            prop_assert!(img.total_resources.fits_in(&capacity));
            prop_assert_eq!(img.total_resources.luts, total);
        } else {
            prop_assert!(built.is_err());
        }
    }

    /// PSS never exceeds RSS, and the sum of all processes' PSS equals the
    /// total live pages (memory is conserved under arbitrary sharing).
    #[test]
    fn pss_conserves_pages(blocks in proptest::collection::vec((1u64..500, 1u8..5), 1..10)) {
        let mut ledger = MemoryLedger::new();
        // procs[i] = list of blocks mapped by process i.
        let mut procs: Vec<Vec<hetsim::os::BlockId>> = vec![Vec::new(); 5];
        for (pages, nprocs) in blocks {
            let b = ledger.alloc(pages);
            procs[0].push(b);
            for p in procs.iter_mut().take(nprocs as usize).skip(1) {
                ledger.share(b);
                p.push(b);
            }
        }
        let rss = |mapped: &Vec<hetsim::os::BlockId>| -> u64 {
            mapped.iter().map(|&b| ledger.pages(b)).sum()
        };
        let pss = |mapped: &Vec<hetsim::os::BlockId>| -> f64 {
            mapped.iter().map(|&b| ledger.pages(b) as f64 / ledger.refs(b) as f64).sum()
        };
        let mut pss_sum = 0.0;
        for p in &procs {
            prop_assert!(pss(p) <= rss(p) as f64 + 1e-9);
            pss_sum += pss(p);
        }
        prop_assert!((pss_sum - ledger.total_pages() as f64).abs() < 1e-6);
    }

    /// Keep-alive policies never exceed their capacity and never return
    /// duplicates.
    #[test]
    fn keepalive_respects_capacity(
        invokes in proptest::collection::vec((0u8..20, 1u64..1000), 1..60),
        capacity in 1usize..10,
    ) {
        let mut lru = Lru::new();
        let mut gd = GreedyDual::new();
        for (f, at) in &invokes {
            let func = FuncId::new(format!("f{f}"));
            let now = SimTime::ZERO + SimDuration::from_millis(*at);
            lru.on_invoke(&func, now, SimDuration::from_millis(5), 1.0);
            gd.on_invoke(&func, now, SimDuration::from_millis(5), 1.0);
        }
        let now = SimTime::ZERO + SimDuration::from_secs(10);
        for keep in [lru.keep_set(now, capacity), gd.keep_set(now, capacity)] {
            prop_assert!(keep.len() <= capacity);
            let mut dedup = keep.clone();
            dedup.sort();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), keep.len(), "duplicates in keep set");
        }
    }

    /// The DES engine is deterministic: any mix of sleepers produces the
    /// same trace twice.
    #[test]
    fn engine_trace_is_deterministic(delays in proptest::collection::vec(0u64..1000, 1..8)) {
        let run = |delays: Vec<u64>| {
            let mut sim = Simulation::new();
            sim.enable_trace();
            for (i, d) in delays.iter().enumerate() {
                let d = *d;
                sim.spawn(&format!("p{i}"), move |ctx| {
                    ctx.sleep(SimDuration::from_nanos(d));
                    ctx.sleep(SimDuration::from_nanos(d / 2 + 1));
                });
            }
            sim.run().unwrap().trace
        };
        prop_assert_eq!(run(delays.clone()), run(delays));
    }

    /// Virtual-time arithmetic: transfer time is monotone in payload size
    /// for every link type.
    #[test]
    fn link_transfer_is_monotone(a in 0u64..10_000_000, b in 0u64..10_000_000) {
        use hetsim::interconnect::Link;
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        for link in [Link::pcie_rdma(), Link::pcie_dma(), Link::shared_mem(), Link::network()] {
            prop_assert!(link.transfer_time(lo) <= link.transfer_time(hi));
        }
    }
}

proptest! {
    /// Meter totals equal the sum of their parts for arbitrary charges.
    #[test]
    fn meter_conserves_charges(charges in proptest::collection::vec((0u8..5, 1u64..100_000, 1u64..1024), 1..50)) {
        use hetsim::pu::PuKind;
        use molecule_core::billing::{Meter, PriceTable};
        let kinds = [PuKind::Cpu, PuKind::Dpu, PuKind::Fpga, PuKind::Gpu, PuKind::SmartNic];
        let mut meter = Meter::new(PriceTable::default());
        let mut expected = 0.0;
        for (k, us, mib) in charges {
            expected += meter.charge(kinds[k as usize], SimDuration::from_micros(us), mib);
        }
        prop_assert!((meter.total() - expected).abs() < 1e-6);
        let by_kind: f64 = kinds.iter().map(|&k| meter.total_for(k)).sum();
        prop_assert!((meter.total() - by_kind).abs() < 1e-6);
    }
}
