//! Structural and timing parameters of a Dragonfly system.

/// The four structural Dragonfly parameters, in the notation of Kim et al.
/// (`g` groups, `a` routers per group, `p` terminals per router, `h` global
/// channels per router).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DragonflyParams {
    /// Number of groups (`g`).
    pub groups: u32,
    /// Routers per group (`a`), fully connected by local links.
    pub routers_per_group: u32,
    /// Compute nodes per router (`p`).
    pub nodes_per_router: u32,
    /// Global channels per router (`h`).
    pub globals_per_router: u32,
}

/// Errors from validating [`DragonflyParams`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A structural parameter was zero.
    ZeroParameter(&'static str),
    /// Too many groups for the available global channels: requires
    /// `groups − 1 ≤ a·h` so every group pair gets a dedicated global link.
    TooManyGroups {
        /// Requested number of groups.
        groups: u32,
        /// Available global channels per group (`a·h`).
        channels: u32,
    },
    /// The router radix would not fit in the `u8` port type.
    RadixTooLarge(u32),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::ZeroParameter(p) => write!(f, "parameter {p} must be nonzero"),
            TopologyError::TooManyGroups { groups, channels } => write!(
                f,
                "{groups} groups need {} global channels per group but only {channels} exist \
                 (need groups-1 <= a*h)",
                groups - 1
            ),
            TopologyError::RadixTooLarge(r) => write!(f, "router radix {r} exceeds 255"),
        }
    }
}

impl std::error::Error for TopologyError {}

impl DragonflyParams {
    /// The paper's 1,056-node system: 33 groups × 8 routers × 4 nodes, 4
    /// global channels per router (§III).
    pub const fn paper_1056() -> Self {
        Self { groups: 33, routers_per_group: 8, nodes_per_router: 4, globals_per_router: 4 }
    }

    /// A small 72-node system (9 groups × 4 routers × 2 nodes, h=2) used by
    /// unit/integration tests where full scale is unnecessary.
    pub const fn tiny_72() -> Self {
        Self { groups: 9, routers_per_group: 4, nodes_per_router: 2, globals_per_router: 2 }
    }

    /// A "balanced" Dragonfly per Kim et al.: `a = 2p = 2h`, maximal
    /// group count `g = a·h + 1`.
    pub const fn balanced(h: u32) -> Self {
        Self {
            groups: 2 * h * h + 1,
            routers_per_group: 2 * h,
            nodes_per_router: h,
            globals_per_router: h,
        }
    }

    /// Validate structural constraints.
    pub fn validate(&self) -> Result<(), TopologyError> {
        if self.groups == 0 {
            return Err(TopologyError::ZeroParameter("groups"));
        }
        if self.routers_per_group == 0 {
            return Err(TopologyError::ZeroParameter("routers_per_group"));
        }
        if self.nodes_per_router == 0 {
            return Err(TopologyError::ZeroParameter("nodes_per_router"));
        }
        if self.globals_per_router == 0 {
            return Err(TopologyError::ZeroParameter("globals_per_router"));
        }
        let channels = self.routers_per_group * self.globals_per_router;
        if self.groups > channels + 1 {
            return Err(TopologyError::TooManyGroups { groups: self.groups, channels });
        }
        if self.radix() > 255 {
            return Err(TopologyError::RadixTooLarge(self.radix()));
        }
        Ok(())
    }

    /// Total number of compute nodes.
    #[inline]
    pub const fn num_nodes(&self) -> u32 {
        self.groups * self.routers_per_group * self.nodes_per_router
    }

    /// Total number of routers.
    #[inline]
    pub const fn num_routers(&self) -> u32 {
        self.groups * self.routers_per_group
    }

    /// Router radix: terminals + locals + globals.
    #[inline]
    pub const fn radix(&self) -> u32 {
        self.nodes_per_router + (self.routers_per_group - 1) + self.globals_per_router
    }

    /// First local port index (= `p`).
    #[inline]
    pub const fn first_local_port(&self) -> u32 {
        self.nodes_per_router
    }

    /// First global port index (= `p + a − 1`).
    #[inline]
    pub const fn first_global_port(&self) -> u32 {
        self.nodes_per_router + self.routers_per_group - 1
    }
}

/// Link bandwidth/latency configuration (paper §III: 200 Gb/s links, 30 ns
/// local and 300 ns global propagation — the 1:10 ratio of prior work; 128 B
/// flits, 512 B packets, 30-packet port buffers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkTiming {
    /// Link bandwidth in Gb/s (all link classes; Slingshot-like 200).
    pub bandwidth_gbps: u64,
    /// Local-link propagation latency in picoseconds.
    pub local_latency_ps: u64,
    /// Global-link propagation latency in picoseconds.
    pub global_latency_ps: u64,
    /// Terminal (node↔router) propagation latency in picoseconds.
    pub terminal_latency_ps: u64,
    /// Flit size in bytes.
    pub flit_bytes: u32,
    /// Packet size in bytes (must be a multiple of the flit size).
    pub packet_bytes: u32,
    /// Input-buffer capacity per (port, VC) in packets.
    pub buffer_packets: u32,
}

impl Default for LinkTiming {
    fn default() -> Self {
        Self {
            bandwidth_gbps: 200,
            local_latency_ps: 30_000,
            global_latency_ps: 300_000,
            terminal_latency_ps: 30_000,
            flit_bytes: 128,
            packet_bytes: 512,
            buffer_packets: 30,
        }
    }
}

impl LinkTiming {
    /// Flits per full packet.
    #[inline]
    pub const fn flits_per_packet(&self) -> u32 {
        self.packet_bytes.div_ceil(self.flit_bytes)
    }

    /// Serialization time of `bytes` on one link, picoseconds.
    #[inline]
    pub const fn serialize(&self, bytes: u32) -> u64 {
        (bytes as u64 * 8 * 1000).div_ceil(self.bandwidth_gbps)
    }

    /// Serialization time of one full packet.
    #[inline]
    pub const fn packet_serialize(&self) -> u64 {
        self.serialize(self.packet_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_system_is_1056_nodes() {
        let p = DragonflyParams::paper_1056();
        p.validate().unwrap();
        assert_eq!(p.num_nodes(), 1056);
        assert_eq!(p.num_routers(), 264);
        assert_eq!(p.radix(), 15);
        // 32 global channels per group ↔ 32 other groups: exactly saturated.
        assert_eq!(p.routers_per_group * p.globals_per_router, p.groups - 1);
    }

    #[test]
    fn tiny_system_validates() {
        let p = DragonflyParams::tiny_72();
        p.validate().unwrap();
        assert_eq!(p.num_nodes(), 72);
        assert_eq!(p.radix(), 2 + 3 + 2);
    }

    #[test]
    fn balanced_maximal_dragonfly() {
        let p = DragonflyParams::balanced(4);
        p.validate().unwrap();
        assert_eq!(p.groups, 33);
        assert_eq!(p, DragonflyParams::paper_1056());
    }

    #[test]
    fn rejects_zero_parameters() {
        let mut p = DragonflyParams::paper_1056();
        p.nodes_per_router = 0;
        assert_eq!(p.validate(), Err(TopologyError::ZeroParameter("nodes_per_router")));
    }

    #[test]
    fn rejects_too_many_groups() {
        let p = DragonflyParams {
            groups: 10,
            routers_per_group: 2,
            nodes_per_router: 1,
            globals_per_router: 2,
        };
        assert_eq!(p.validate(), Err(TopologyError::TooManyGroups { groups: 10, channels: 4 }));
    }

    #[test]
    fn port_layout_offsets() {
        let p = DragonflyParams::paper_1056();
        assert_eq!(p.first_local_port(), 4);
        assert_eq!(p.first_global_port(), 11);
    }

    #[test]
    fn default_timing_matches_paper() {
        let t = LinkTiming::default();
        assert_eq!(t.flits_per_packet(), 4);
        assert_eq!(t.serialize(128), 5_120);
        assert_eq!(t.packet_serialize(), 20_480);
        // local:global latency ratio is 1:10.
        assert_eq!(t.global_latency_ps / t.local_latency_ps, 10);
    }
}
