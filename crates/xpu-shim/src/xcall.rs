//! XPUcall transports and their cost model (paper Fig. 7).
//!
//! An XPUcall is how a user process talks to its local XPU-Shim daemon.
//! Three implementations exist, in increasing order of optimization:
//!
//! 1. **Base** — request and response each travel over a FIFO (two IPC
//!    segments). ~100 µs on BlueField-1, ~20 µs on the host CPU (§5).
//! 2. **Mpsc** — requests go through a shared multi-producer single-consumer
//!    queue that the shim polls; only the response uses a FIFO (one segment).
//! 3. **MpscPoll** — the user process additionally polls shared memory for
//!    the response, eliminating IPC entirely. The paper's default on devices.

use core::fmt;

use hetsim::calib::{OsCosts, XpuCallCosts};
use hetsim::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Which Fig. 7 implementation a shim instance uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum XcallTransport {
    /// FIFO request + FIFO response (Fig. 7-a).
    Base,
    /// Shared MPSC queue request + FIFO response (Fig. 7-b).
    Mpsc,
    /// Shared MPSC queue request + polled shared-memory response (Fig. 7-c).
    /// The evaluation's default on devices.
    #[default]
    MpscPoll,
}

impl XcallTransport {
    /// All transports, in the order Fig. 8 plots them.
    pub const ALL: [XcallTransport; 3] =
        [XcallTransport::Base, XcallTransport::Mpsc, XcallTransport::MpscPoll];

    /// The time a user process spends performing one XPUcall carrying
    /// `payload_bytes` of arguments, excluding any interconnect transfer.
    pub fn invoke_cost(self, os: &OsCosts, xc: &XpuCallCosts, payload_bytes: u64) -> SimDuration {
        let staged = SimDuration::from_nanos((xc.shm_per_byte_ns * payload_bytes as f64) as u64);
        let polled = SimDuration::from_nanos((xc.poll_per_byte_ns * payload_bytes as f64) as u64);
        match self {
            XcallTransport::Base => os.ipc_segment * 2 + xc.processing + staged,
            XcallTransport::Mpsc => {
                xc.mpsc_enqueue + xc.shim_pickup + xc.processing + os.ipc_segment + staged
            }
            XcallTransport::MpscPoll => {
                xc.mpsc_enqueue
                    + xc.shim_pickup
                    + xc.processing
                    + xc.shm_response
                    + xc.user_poll
                    + polled
            }
        }
    }

    /// The marginal cost of an XPUcall that shares a doorbell with a call
    /// issued to the same peer moments earlier: queue admission, shim
    /// processing and payload staging are still paid, but the wakeup /
    /// response machinery (`ipc_segment`, shm response, user poll) is
    /// amortized across the coalesced batch. Strictly cheaper than
    /// [`XcallTransport::invoke_cost`] for every transport.
    pub fn coalesced_cost(
        self,
        os: &OsCosts,
        xc: &XpuCallCosts,
        payload_bytes: u64,
    ) -> SimDuration {
        let staged = SimDuration::from_nanos((xc.shm_per_byte_ns * payload_bytes as f64) as u64);
        let polled = SimDuration::from_nanos((xc.poll_per_byte_ns * payload_bytes as f64) as u64);
        let _ = os;
        match self {
            XcallTransport::Base => xc.processing + staged,
            XcallTransport::Mpsc => xc.mpsc_enqueue + xc.processing + staged,
            XcallTransport::MpscPoll => xc.mpsc_enqueue + xc.processing + polled,
        }
    }
}

/// Upper byte bounds of the payload-size buckets the adaptive selector keys
/// its per-link estimates on (the last bucket is open-ended).
pub const PAYLOAD_BUCKETS: [u64; 7] = [64, 256, 1024, 4096, 16_384, 65_536, u64::MAX];

/// The bucket index a payload of `bytes` falls into.
pub fn payload_bucket(bytes: u64) -> usize {
    PAYLOAD_BUCKETS.iter().position(|&hi| bytes <= hi).unwrap_or(PAYLOAD_BUCKETS.len() - 1)
}

/// A representative payload size for seeding a bucket's cost estimate: the
/// bucket's upper bound (conservative), or 256 KiB for the open-ended tail.
pub fn bucket_representative(bucket: usize) -> u64 {
    let hi = PAYLOAD_BUCKETS[bucket.min(PAYLOAD_BUCKETS.len() - 1)];
    if hi == u64::MAX {
        256 * 1024
    } else {
        hi
    }
}

impl fmt::Display for XcallTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            XcallTransport::Base => "nIPC-Base",
            XcallTransport::Mpsc => "nIPC-MPSC",
            XcallTransport::MpscPoll => "nIPC-Poll",
        };
        f.write_str(s)
    }
}

/// The XPUcall vocabulary of Table 2 (used for dispatch accounting and
/// tracing; the cluster exposes one typed method per call).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XpuCallKind {
    /// `grant_cap(xpu_pid, obj_id, perm)`
    GrantCap,
    /// `revoke_cap(xpu_pid, obj_id, perm)`
    RevokeCap,
    /// `xfifo_init(local_uuid, xpu_uuid)`
    XfifoInit,
    /// `xfifo_connect(xpu_uuid)`
    XfifoConnect,
    /// `xfifo_close(xpu_fd)`
    XfifoClose,
    /// `xfifo_read(xpu_fd, buf, length)`
    XfifoRead,
    /// `xfifo_write(xpu_fd, buf, length)`
    XfifoWrite,
    /// `xSpawn(PU_id, path, argv, envp, capv)`
    XSpawn,
    /// `get_xpupid()`
    GetXpuPid,
}

impl fmt::Display for XpuCallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            XpuCallKind::GrantCap => "grant_cap",
            XpuCallKind::RevokeCap => "revoke_cap",
            XpuCallKind::XfifoInit => "xfifo_init",
            XpuCallKind::XfifoConnect => "xfifo_connect",
            XpuCallKind::XfifoClose => "xfifo_close",
            XpuCallKind::XfifoRead => "xfifo_read",
            XpuCallKind::XfifoWrite => "xfifo_write",
            XpuCallKind::XSpawn => "xSpawn",
            XpuCallKind::GetXpuPid => "get_xpupid",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::calib::Calibration;

    #[test]
    fn base_transport_matches_section5_costs() {
        let c = Calibration::paper_server();
        let dpu = XcallTransport::Base.invoke_cost(&c.dpu_bf1_os, &c.xcall_device, 16);
        let cpu = XcallTransport::Base.invoke_cost(&c.cpu_os, &c.xcall_cpu, 16);
        assert!((95.0..=105.0).contains(&dpu.as_micros_f64()), "DPU base {dpu}");
        assert!((17.0..=23.0).contains(&cpu.as_micros_f64()), "CPU base {cpu}");
    }

    #[test]
    fn optimization_ladder_strictly_improves_on_devices() {
        let c = Calibration::paper_server();
        for size in [16u64, 256, 2048] {
            let base = XcallTransport::Base.invoke_cost(&c.dpu_bf1_os, &c.xcall_device, size);
            let mpsc = XcallTransport::Mpsc.invoke_cost(&c.dpu_bf1_os, &c.xcall_device, size);
            let poll = XcallTransport::MpscPoll.invoke_cost(&c.dpu_bf1_os, &c.xcall_device, size);
            assert!(base > mpsc, "MPSC must beat Base at {size}B");
            assert!(mpsc > poll, "Poll must beat MPSC at {size}B");
        }
    }

    #[test]
    fn poll_transport_beats_local_linux_fifo_on_dpu() {
        // Fig. 8: "nIPC-Polling ... is even better than Linux IPC (on DPU)
        // because it bypasses the slow kernel on the device".
        let c = Calibration::paper_server();
        for size in [16u64, 512, 2048] {
            let poll = XcallTransport::MpscPoll.invoke_cost(&c.dpu_bf1_os, &c.xcall_device, size);
            let linux = c.dpu_bf1_os.fifo_latency(size);
            assert!(poll < linux, "poll {poll} should beat Linux DPU fifo {linux} at {size}B");
        }
    }

    #[test]
    fn payload_size_matters_most_for_base() {
        let c = Calibration::paper_server();
        let grow = |t: XcallTransport| {
            let small = t.invoke_cost(&c.dpu_bf1_os, &c.xcall_device, 16);
            let large = t.invoke_cost(&c.dpu_bf1_os, &c.xcall_device, 2048);
            large - small
        };
        assert!(grow(XcallTransport::Base) > grow(XcallTransport::MpscPoll));
    }

    #[test]
    fn coalesced_cost_is_strictly_cheaper_for_every_transport() {
        let c = Calibration::paper_server();
        for (os, xc) in [(&c.dpu_bf1_os, &c.xcall_device), (&c.cpu_os, &c.xcall_cpu)] {
            for size in [0u64, 16, 2048, 65_536] {
                for t in XcallTransport::ALL {
                    assert!(
                        t.coalesced_cost(os, xc, size) < t.invoke_cost(os, xc, size),
                        "{t} coalesced must undercut the full doorbell at {size}B"
                    );
                }
            }
        }
    }

    #[test]
    fn payload_buckets_are_monotone_and_cover_all_sizes() {
        assert_eq!(payload_bucket(0), 0);
        assert_eq!(payload_bucket(64), 0);
        assert_eq!(payload_bucket(65), 1);
        assert_eq!(payload_bucket(4096), 3);
        assert_eq!(payload_bucket(1 << 20), 6);
        for b in 0..PAYLOAD_BUCKETS.len() {
            assert_eq!(payload_bucket(bucket_representative(b)), b);
        }
    }

    #[test]
    fn display_names_match_fig8_legend() {
        assert_eq!(XcallTransport::Base.to_string(), "nIPC-Base");
        assert_eq!(XcallTransport::Mpsc.to_string(), "nIPC-MPSC");
        assert_eq!(XcallTransport::MpscPoll.to_string(), "nIPC-Poll");
        assert_eq!(XpuCallKind::XfifoWrite.to_string(), "xfifo_write");
    }
}
