//! The heterogeneous computer: PUs + local OSes + devices + interconnect.
//!
//! [`Machine`] bundles everything the upper layers need: a [`PuSpec`] per
//! processing unit, a booted [`LocalOs`] per general-purpose PU (making the
//! machine a *multi-OS system*), device models for accelerators, and the
//! link/route table used by nIPC.
//!
//! # Examples
//!
//! ```
//! use hetsim::topology::Machine;
//!
//! // The paper's CPU-DPU evaluation server: Xeon + two BlueField-1 DPUs.
//! let machine = Machine::builder().host_cpu().bluefield1_dpus(2).build();
//! assert_eq!(machine.pus().len(), 3);
//! assert!(machine.os(machine.host_cpu()).is_some());
//! ```

use std::collections::HashMap;
use std::fmt;

use crate::calib::Calibration;
use crate::fault::FaultPlane;
use crate::fpga::FpgaDevice;
use crate::gpu::{GpuCosts, GpuDevice};
use crate::interconnect::{Link, Route};
use crate::os::LocalOs;
use crate::pu::{NodeId, PuId, PuKind, PuSpec};
use crate::time::SimDuration;

/// Builder for a [`Machine`].
#[derive(Debug)]
pub struct MachineBuilder {
    calib: Calibration,
    pus: Vec<PuSpec>,
    direct_device_links: bool,
}

impl MachineBuilder {
    /// Starts from the paper-server calibration.
    pub fn new() -> MachineBuilder {
        MachineBuilder {
            calib: Calibration::paper_server(),
            pus: Vec::new(),
            direct_device_links: false,
        }
    }

    /// Uses a custom calibration table.
    pub fn calibration(mut self, calib: Calibration) -> MachineBuilder {
        self.calib = calib;
        self
    }

    fn next_id(&self) -> PuId {
        PuId(self.pus.len() as u16)
    }

    /// Adds the host CPU (must be the first PU).
    ///
    /// # Panics
    ///
    /// Panics if a PU was already added.
    pub fn host_cpu(mut self) -> MachineBuilder {
        assert!(self.pus.is_empty(), "the host CPU must be PU 0");
        let id = self.next_id();
        self.pus.push(PuSpec::xeon_host(id));
        self
    }

    /// Adds `n` BlueField-1 DPUs.
    pub fn bluefield1_dpus(mut self, n: usize) -> MachineBuilder {
        for _ in 0..n {
            let id = self.next_id();
            self.pus.push(PuSpec::bluefield1(id));
        }
        self
    }

    /// Adds `n` BlueField-2 DPUs.
    pub fn bluefield2_dpus(mut self, n: usize) -> MachineBuilder {
        for _ in 0..n {
            let id = self.next_id();
            self.pus.push(PuSpec::bluefield2(id));
        }
        self
    }

    /// Adds `n` UltraScale+ FPGAs (the F1 instance has eight).
    pub fn fpgas(mut self, n: usize) -> MachineBuilder {
        for _ in 0..n {
            let id = self.next_id();
            self.pus.push(PuSpec::ultrascale_fpga(id));
        }
        self
    }

    /// Adds `n` GPUs.
    pub fn gpus(mut self, n: usize) -> MachineBuilder {
        for _ in 0..n {
            let id = self.next_id();
            self.pus.push(PuSpec::generic_gpu(id));
        }
        self
    }

    /// Adds `n` SmartNICs.
    pub fn smartnics(mut self, n: usize) -> MachineBuilder {
        for _ in 0..n {
            let id = self.next_id();
            self.pus.push(PuSpec::generic_smartnic(id));
        }
        self
    }

    /// Enables direct device↔device links (DPU↔FPGA etc.), lifting the
    /// paper's §5 limitation that such traffic must be forwarded by the
    /// host CPU. This is the prototype's stated future work; the
    /// reproduction implements it as an opt-in extension.
    pub fn direct_device_links(mut self) -> MachineBuilder {
        self.direct_device_links = true;
        self
    }

    /// Boots the machine: one local OS per general-purpose PU, one device
    /// model per accelerator, and host↔device links.
    ///
    /// # Panics
    ///
    /// Panics if no host CPU was added.
    pub fn build(self) -> Machine {
        assert!(
            self.pus.first().is_some_and(|p| p.kind == PuKind::Cpu),
            "a machine needs a host CPU as PU 0"
        );
        let mut oses = HashMap::new();
        let mut fpgas = HashMap::new();
        let mut gpus = HashMap::new();
        let mut links = HashMap::new();
        let host = PuId::HOST_CPU;
        let faults = FaultPlane::new();
        for pu in &self.pus {
            match pu.kind {
                PuKind::Cpu | PuKind::Dpu | PuKind::SmartNic => {
                    let usable = match pu.kind {
                        PuKind::Cpu => self.calib.density.cpu_usable_mib,
                        _ => self.calib.density.dpu_usable_mib,
                    };
                    let costs = self.calib.os_costs(pu.model);
                    oses.insert(pu.id, LocalOs::boot(pu, costs, usable));
                    if pu.id != host {
                        links.insert((host, pu.id), Link::pcie_rdma());
                        links.insert((pu.id, host), Link::pcie_rdma());
                    }
                }
                PuKind::Fpga => {
                    let dev = FpgaDevice::new(pu.id, self.calib.fpga);
                    dev.attach_fault_plane(faults.clone());
                    fpgas.insert(pu.id, dev);
                    links.insert((host, pu.id), Link::pcie_dma());
                    links.insert((pu.id, host), Link::pcie_dma());
                }
                PuKind::Gpu => {
                    gpus.insert(pu.id, GpuDevice::new(pu.id, GpuCosts::default()));
                    links.insert((host, pu.id), Link::pcie_dma());
                    links.insert((pu.id, host), Link::pcie_dma());
                }
            }
        }
        if self.direct_device_links {
            // Future-work extension: full mesh between non-host PUs using
            // the slower of the two host links' technologies (DMA wins over
            // RDMA because accelerator endpoints only speak DMA).
            let ids: Vec<PuId> = self.pus.iter().skip(1).map(|p| p.id).collect();
            for &a in &ids {
                for &b in &ids {
                    if a != b && !links.contains_key(&(a, b)) {
                        let kind_a = self.pus[a.raw() as usize].kind;
                        let kind_b = self.pus[b.raw() as usize].kind;
                        let link = if kind_a.is_general_purpose() && kind_b.is_general_purpose() {
                            Link::pcie_rdma()
                        } else {
                            Link::pcie_dma()
                        };
                        links.insert((a, b), link);
                    }
                }
            }
        }
        let node_of = vec![NodeId(0); self.pus.len()];
        Machine {
            calib: self.calib,
            pus: self.pus,
            node_of,
            node_hosts: vec![host],
            oses,
            fpgas,
            gpus,
            links,
            forward_cost: SimDuration::from_micros(10),
            faults,
        }
    }
}

impl Default for MachineBuilder {
    fn default() -> Self {
        MachineBuilder::new()
    }
}

/// Builder for a rack: several identically shaped nodes (each a host CPU
/// plus BlueField-1 DPUs) joined by a full-mesh RDMA fabric between the node hosts.
///
/// The result is still one [`Machine`] — PUs are globally numbered and the
/// whole stack (shim, gateways, state layer) runs over it unchanged — but
/// [`Machine::route`] returns [`Route::Fabric`] for cross-node pairs and
/// the node accessors expose the partitioning.
///
/// # Examples
///
/// ```
/// use hetsim::topology::Machine;
/// use hetsim::pu::NodeId;
///
/// let rack = Machine::rack_builder(4).bluefield1_dpus_per_node(2).build();
/// assert_eq!(rack.node_count(), 4);
/// assert_eq!(rack.pus().len(), 12);
/// assert!(rack.route(rack.node_host(NodeId(0)), rack.node_host(NodeId(3))).is_fabric());
/// ```
#[derive(Debug)]
pub struct RackBuilder {
    calib: Calibration,
    nodes: usize,
    bf1_dpus: usize,
}

impl RackBuilder {
    /// Starts a rack of `nodes` nodes with the paper-server calibration.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize) -> RackBuilder {
        assert!(nodes >= 1, "a rack needs at least one node");
        RackBuilder { calib: Calibration::paper_server(), nodes, bf1_dpus: 0 }
    }

    /// Uses a custom calibration table.
    pub fn calibration(mut self, calib: Calibration) -> RackBuilder {
        self.calib = calib;
        self
    }

    /// Adds `n` BlueField-1 DPUs to every node.
    pub fn bluefield1_dpus_per_node(mut self, n: usize) -> RackBuilder {
        self.bf1_dpus = n;
        self
    }

    /// Boots the rack: per node, one host CPU with its local OS, the node's
    /// DPUs with host↔DPU links; across nodes, a full mesh of fabric
    /// links between the hosts. All nodes share one fault plane.
    pub fn build(self) -> Machine {
        let mut pus = Vec::new();
        let mut node_of = Vec::new();
        let mut node_hosts = Vec::new();
        let mut oses = HashMap::new();
        let mut links = HashMap::new();
        for node in 0..self.nodes {
            let node = NodeId(node as u16);
            let host = PuId(pus.len() as u16);
            node_hosts.push(host);
            let spec = PuSpec::xeon_host(host);
            oses.insert(
                host,
                LocalOs::boot(
                    &spec,
                    self.calib.os_costs(spec.model),
                    self.calib.density.cpu_usable_mib,
                ),
            );
            pus.push(spec);
            node_of.push(node);
            for _ in 0..self.bf1_dpus {
                let id = PuId(pus.len() as u16);
                let spec = PuSpec::bluefield1(id);
                let costs = self.calib.os_costs(spec.model);
                oses.insert(id, LocalOs::boot(&spec, costs, self.calib.density.dpu_usable_mib));
                links.insert((host, id), Link::pcie_rdma());
                links.insert((id, host), Link::pcie_rdma());
                pus.push(spec);
                node_of.push(node);
            }
        }
        // Full-mesh fabric between node hosts.
        for &a in &node_hosts {
            for &b in &node_hosts {
                if a != b {
                    links.insert((a, b), self.calib.fabric.link());
                }
            }
        }
        Machine {
            calib: self.calib,
            pus,
            node_of,
            node_hosts,
            oses,
            fpgas: HashMap::new(),
            gpus: HashMap::new(),
            links,
            forward_cost: SimDuration::from_micros(10),
            faults: FaultPlane::new(),
        }
    }
}

/// A booted heterogeneous computer.
///
/// Cloning a `Machine` yields another handle to the *same* machine: OS and
/// device state is shared between clones.
#[derive(Clone)]
pub struct Machine {
    calib: Calibration,
    pus: Vec<PuSpec>,
    /// Node membership, indexed by [`PuId::raw`]. All `NodeId(0)` on a
    /// single-machine topology.
    node_of: Vec<NodeId>,
    /// Each node's host CPU, indexed by [`NodeId::raw`].
    node_hosts: Vec<PuId>,
    oses: HashMap<PuId, LocalOs>,
    fpgas: HashMap<PuId, FpgaDevice>,
    gpus: HashMap<PuId, GpuDevice>,
    links: HashMap<(PuId, PuId), Link>,
    forward_cost: SimDuration,
    faults: FaultPlane,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("pus", &self.pus.len())
            .field("oses", &self.oses.len())
            .field("fpgas", &self.fpgas.len())
            .field("gpus", &self.gpus.len())
            .finish()
    }
}

impl Machine {
    /// Starts building a machine.
    pub fn builder() -> MachineBuilder {
        MachineBuilder::new()
    }

    /// Starts building a rack of `nodes` nodes.
    pub fn rack_builder(nodes: usize) -> RackBuilder {
        RackBuilder::new(nodes)
    }

    /// A rack of `nodes` paper CPU+DPU servers (each a Xeon host plus
    /// `dpus_per_node` BlueField-1 DPUs) on a full-mesh RDMA fabric.
    pub fn rack(nodes: usize, dpus_per_node: usize) -> Machine {
        Machine::rack_builder(nodes).bluefield1_dpus_per_node(dpus_per_node).build()
    }

    /// The calibration table the machine was booted with.
    pub fn calibration(&self) -> &Calibration {
        &self.calib
    }

    /// All PUs, indexable by [`PuId::raw`].
    pub fn pus(&self) -> &[PuSpec] {
        &self.pus
    }

    /// A PU's spec.
    pub fn pu(&self, id: PuId) -> Option<&PuSpec> {
        self.pus.get(id.raw() as usize)
    }

    /// The host CPU's id (always PU 0).
    pub fn host_cpu(&self) -> PuId {
        PuId::HOST_CPU
    }

    /// The local OS of a general-purpose PU.
    pub fn os(&self, id: PuId) -> Option<&LocalOs> {
        self.oses.get(&id)
    }

    /// The FPGA device model attached as `id`.
    pub fn fpga(&self, id: PuId) -> Option<&FpgaDevice> {
        self.fpgas.get(&id)
    }

    /// The GPU device model attached as `id`.
    pub fn gpu(&self, id: PuId) -> Option<&GpuDevice> {
        self.gpus.get(&id)
    }

    /// PUs of a given kind.
    pub fn pus_of_kind(&self, kind: PuKind) -> Vec<PuId> {
        self.pus.iter().filter(|p| p.kind == kind).map(|p| p.id).collect()
    }

    /// The machine's fault-injection plane (quiet unless a chaos plan armed
    /// it). Clones of the machine share the same plane.
    pub fn fault_plane(&self) -> &FaultPlane {
        &self.faults
    }

    /// The node a PU belongs to.
    ///
    /// # Panics
    ///
    /// Panics if the PU does not exist.
    pub fn node_of(&self, pu: PuId) -> NodeId {
        self.node_of[pu.raw() as usize]
    }

    /// A node's host CPU.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn node_host(&self, node: NodeId) -> PuId {
        self.node_hosts[node.raw() as usize]
    }

    /// All nodes, in id order. Single-machine topologies report one node.
    pub fn nodes(&self) -> Vec<NodeId> {
        (0..self.node_hosts.len() as u16).map(NodeId).collect()
    }

    /// Number of nodes in the topology.
    pub fn node_count(&self) -> usize {
        self.node_hosts.len()
    }

    /// The PUs belonging to `node`, in id order.
    pub fn node_pus(&self, node: NodeId) -> Vec<PuId> {
        self.pus.iter().map(|p| p.id).filter(|&id| self.node_of(id) == node).collect()
    }

    /// True when both PUs live on the same node (intra-machine traffic).
    pub fn same_node(&self, a: PuId, b: PuId) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// The route between two PUs: direct where a link exists, otherwise
    /// forwarded by the node's host CPU ("CPU-intercepted communication",
    /// §5); PUs on different nodes cross the rack fabric between the two
    /// node hosts. An injected link degradation slows the returned route.
    ///
    /// # Panics
    ///
    /// Panics if either PU does not exist.
    pub fn route(&self, from: PuId, to: PuId) -> Route {
        assert!(self.pu(from).is_some(), "unknown source PU {from}");
        assert!(self.pu(to).is_some(), "unknown destination PU {to}");
        if !self.same_node(from, to) {
            return self.fabric_route(from, to);
        }
        let route = if from == to {
            Route::Direct(Link::shared_mem())
        } else if let Some(link) = self.links.get(&(from, to)) {
            Route::Direct(*link)
        } else {
            let host = self.node_host(self.node_of(from));
            let first = *self.links.get(&(from, host)).expect("every non-host PU has a host link");
            let second = *self.links.get(&(host, to)).expect("every non-host PU has a host link");
            Route::CpuIntercepted { first, second, forward_cost: self.forward_cost }
        };
        let factor = self.faults.link_factor(from, to);
        if factor == 1.0 {
            route
        } else {
            route.degraded(factor)
        }
    }

    /// The cross-node route: source PU → its node host (unless it *is* the
    /// host), fabric link host → host, destination host → destination PU.
    /// Each leg is degraded by its own pair's fault factor, so chaos can
    /// target one fabric link without slowing intra-node hops.
    fn fabric_route(&self, from: PuId, to: PuId) -> Route {
        let src_host = self.node_host(self.node_of(from));
        let dst_host = self.node_host(self.node_of(to));
        let leg = |a: PuId, b: PuId| -> Link {
            let link = *self.links.get(&(a, b)).unwrap_or_else(|| {
                panic!("no link {a} -> {b} (every PU links to its node host, hosts full-mesh)")
            });
            let factor = self.faults.link_factor(a, b);
            if factor == 1.0 {
                link
            } else {
                link.degraded(factor)
            }
        };
        Route::Fabric {
            ingress: (from != src_host).then(|| leg(from, src_host)),
            fabric: leg(src_host, dst_host),
            egress: (to != dst_host).then(|| leg(dst_host, to)),
            forward_cost: self.calib.fabric.forward,
        }
    }

    /// True when an injected partition cuts the *path* between two PUs:
    /// either the pair itself is partitioned, or any relayed leg of its
    /// route is — the host legs of a CPU-intercepted route, or the
    /// ingress/fabric/egress legs of a cross-node route. This is the single
    /// partition check the data plane consults, so a severed fabric link
    /// isolates everything routed across it.
    pub fn path_cut(&self, from: PuId, to: PuId) -> bool {
        let plane = &self.faults;
        if plane.is_partitioned(from, to) {
            return true;
        }
        if !self.same_node(from, to) {
            let src_host = self.node_host(self.node_of(from));
            let dst_host = self.node_host(self.node_of(to));
            return plane.is_partitioned(from, src_host)
                || plane.is_partitioned(src_host, dst_host)
                || plane.is_partitioned(dst_host, to);
        }
        if from == to || self.links.contains_key(&(from, to)) {
            return false;
        }
        let host = self.node_host(self.node_of(from));
        plane.is_partitioned(from, host) || plane.is_partitioned(host, to)
    }

    /// The paper's CPU-DPU evaluation server (Xeon + two BlueField-1 DPUs).
    pub fn paper_cpu_dpu_server() -> Machine {
        Machine::builder().host_cpu().bluefield1_dpus(2).build()
    }

    /// The paper's CPU-FPGA machine (F1.x16large: host + 8 FPGAs).
    pub fn paper_f1_instance() -> Machine {
        Machine::builder().host_cpu().fpgas(8).build()
    }

    /// A fully loaded machine for integration tests: CPU + 2 DPUs + 1 FPGA +
    /// 1 GPU.
    pub fn full_heterogeneous() -> Machine {
        Machine::builder().host_cpu().bluefield1_dpus(2).fpgas(1).gpus(1).build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interconnect::LinkKind;

    #[test]
    fn paper_server_has_three_oses() {
        // §2.1.1: "there are three Linux systems ... one on the CPU and two
        // on the DPUs".
        let m = Machine::paper_cpu_dpu_server();
        assert_eq!(m.oses.len(), 3);
        assert_eq!(m.pus_of_kind(PuKind::Dpu).len(), 2);
        assert!(m.fpga(PuId(1)).is_none());
    }

    #[test]
    fn f1_instance_has_eight_fpgas() {
        let m = Machine::paper_f1_instance();
        assert_eq!(m.pus_of_kind(PuKind::Fpga).len(), 8);
        assert!(m.os(PuId(3)).is_none(), "FPGAs run no OS");
        assert!(m.fpga(PuId(3)).is_some());
    }

    #[test]
    fn routes_pick_the_right_technology() {
        let m = Machine::full_heterogeneous();
        let dpu = m.pus_of_kind(PuKind::Dpu)[0];
        let fpga = m.pus_of_kind(PuKind::Fpga)[0];
        let host = m.host_cpu();

        match m.route(host, dpu) {
            Route::Direct(link) => assert_eq!(link.kind, LinkKind::PcieRdma),
            other => panic!("CPU-DPU should be direct RDMA, got {other:?}"),
        }
        match m.route(host, fpga) {
            Route::Direct(link) => assert_eq!(link.kind, LinkKind::PcieDma),
            other => panic!("CPU-FPGA should be direct DMA, got {other:?}"),
        }
        // §5 limitation: no direct DPU-FPGA path; the CPU forwards.
        assert!(m.route(dpu, fpga).is_intercepted());
        match m.route(dpu, dpu) {
            Route::Direct(link) => assert_eq!(link.kind, LinkKind::SharedMem),
            other => panic!("same-PU should be shared memory, got {other:?}"),
        }
    }

    #[test]
    fn intercepted_route_is_slower_than_direct() {
        let m = Machine::full_heterogeneous();
        let dpu = m.pus_of_kind(PuKind::Dpu)[0];
        let fpga = m.pus_of_kind(PuKind::Fpga)[0];
        let direct = m.route(m.host_cpu(), fpga).transfer_time(4096);
        let forwarded = m.route(dpu, fpga).transfer_time(4096);
        assert!(forwarded > direct);
    }

    #[test]
    fn direct_device_links_remove_cpu_interception() {
        let m =
            Machine::builder().host_cpu().bluefield1_dpus(1).fpgas(1).direct_device_links().build();
        let dpu = m.pus_of_kind(PuKind::Dpu)[0];
        let fpga = m.pus_of_kind(PuKind::Fpga)[0];
        let route = m.route(dpu, fpga);
        assert!(!route.is_intercepted(), "direct link must bypass the host");
        // And it is strictly faster than the intercepted path.
        let legacy = Machine::builder().host_cpu().bluefield1_dpus(1).fpgas(1).build();
        assert!(route.transfer_time(4096) < legacy.route(dpu, fpga).transfer_time(4096));
    }

    #[test]
    #[should_panic(expected = "host CPU")]
    fn machine_without_cpu_panics() {
        let _ = Machine::builder().build();
    }

    #[test]
    fn single_machine_is_one_node() {
        let m = Machine::full_heterogeneous();
        assert_eq!(m.node_count(), 1);
        assert_eq!(m.nodes(), vec![NodeId(0)]);
        assert_eq!(m.node_host(NodeId(0)), m.host_cpu());
        for pu in m.pus() {
            assert_eq!(m.node_of(pu.id), NodeId(0));
        }
        assert_eq!(m.node_pus(NodeId(0)).len(), m.pus().len());
    }

    #[test]
    fn rack_routes_cross_the_fabric_only_between_nodes() {
        let rack = Machine::rack(2, 2);
        assert_eq!(rack.pus().len(), 6);
        assert_eq!(rack.node_count(), 2);
        let (h0, h1) = (rack.node_host(NodeId(0)), rack.node_host(NodeId(1)));
        assert_eq!(h0, PuId(0));
        assert_eq!(h1, PuId(3));
        assert_eq!(rack.node_pus(NodeId(1)), vec![PuId(3), PuId(4), PuId(5)]);
        // Intra-node routing is untouched: host ↔ its DPU is direct RDMA.
        match rack.route(h1, PuId(4)) {
            Route::Direct(link) => assert_eq!(link.kind, LinkKind::PcieRdma),
            other => panic!("intra-node host-DPU should be direct, got {other:?}"),
        }
        // Host-to-host crosses the bare fabric link.
        match rack.route(h0, h1) {
            Route::Fabric { ingress: None, fabric, egress: None, .. } => {
                assert_eq!(fabric.kind, LinkKind::RackRdma);
            }
            other => panic!("host-host should be a bare fabric route, got {other:?}"),
        }
        // DPU-to-DPU across nodes relays through both hosts.
        match rack.route(PuId(1), PuId(4)) {
            Route::Fabric { ingress: Some(i), fabric, egress: Some(e), .. } => {
                assert_eq!(i.kind, LinkKind::PcieRdma);
                assert_eq!(fabric.kind, LinkKind::RackRdma);
                assert_eq!(e.kind, LinkKind::PcieRdma);
            }
            other => panic!("cross-node DPU-DPU should relay via both hosts, got {other:?}"),
        }
        // The fabric tier costs more than any intra-node route.
        assert!(
            rack.route(PuId(1), PuId(4)).transfer_time(4096)
                > rack.route(PuId(1), PuId(2)).transfer_time(4096)
        );
    }

    #[test]
    fn fabric_degradation_is_per_pair() {
        let rack = Machine::rack_builder(3).bluefield1_dpus_per_node(1).build();
        let (h0, h1, h2) =
            (rack.node_host(NodeId(0)), rack.node_host(NodeId(1)), rack.node_host(NodeId(2)));
        let fast = rack.route(h0, h1).transfer_time(4096);
        assert_eq!(rack.route(h0, h2).transfer_time(4096), fast);
        // Degrading one fabric pair leaves the others untouched.
        rack.fault_plane().degrade_link(crate::time::SimTime::ZERO, h0, h1, 4.0);
        assert!(rack.route(h0, h1).transfer_time(4096) > fast);
        assert_eq!(rack.route(h1, h2).transfer_time(4096), fast);
    }

    #[test]
    fn path_cut_covers_fabric_legs() {
        use crate::time::SimTime;
        let rack = Machine::rack(2, 1);
        let (h0, h1) = (rack.node_host(NodeId(0)), rack.node_host(NodeId(1)));
        let (d0, d1) = (PuId(1), PuId(3));
        assert!(!rack.path_cut(d0, d1));
        // Severing the host-host fabric link cuts every cross-node path.
        rack.fault_plane().partition(SimTime::ZERO, h0, h1);
        assert!(rack.path_cut(d0, d1));
        assert!(rack.path_cut(h0, d1));
        assert!(rack.path_cut(h0, h1));
        assert!(!rack.path_cut(d0, h0), "intra-node paths survive a fabric cut");
        rack.fault_plane().heal_partition(SimTime::ZERO, h0, h1);
        assert!(!rack.path_cut(d0, d1));
        // An ingress-leg partition cuts only paths relayed through it.
        rack.fault_plane().partition(SimTime::ZERO, d0, h0);
        assert!(rack.path_cut(d0, d1));
        assert!(!rack.path_cut(h0, d1));
    }

    #[test]
    fn dpu_os_uses_dpu_calibration() {
        let m = Machine::paper_cpu_dpu_server();
        let cpu_os = m.os(m.host_cpu()).unwrap();
        let dpu_os = m.os(PuId(1)).unwrap();
        assert!(dpu_os.costs().fifo_base > cpu_os.costs().fifo_base);
        assert_eq!(dpu_os.usable_mib(), m.calibration().density.dpu_usable_mib);
    }
}
