//! Per-port stall/busy/traffic accounting (Fig 11's "network stall time").
//!
//! A port *stalls* while a packet at the head of an input VC is ready to
//! depart but cannot (no downstream credit, or the output link is busy with
//! another packet). The network simulation reports those intervals here; the
//! Fig 11 harness aggregates local-link stall per group and global-link stall
//! per group pair.

use dfsim_topology::LinkKind;

/// Accumulated counters for one directed router output port.
#[derive(Debug, Clone, Copy, Default)]
pub struct PortStats {
    /// Total time packets spent head-of-line blocked wanting this port, ps.
    pub stall_ps: u64,
    /// Total time the output link spent serializing packets, ps.
    pub busy_ps: u64,
    /// Bytes forwarded through this port.
    pub bytes: u64,
    /// Packets forwarded through this port.
    pub packets: u64,
}

/// Dense per-(router, port) stats table.
#[derive(Debug, Clone)]
pub struct PortTable {
    radix: usize,
    stats: Vec<PortStats>,
    kinds: Vec<LinkKind>,
}

impl PortTable {
    /// Table for `routers` routers of the given `radix`; `kind_of` classifies
    /// each port index.
    pub fn new(routers: usize, radix: usize, kind_of: impl Fn(u8) -> LinkKind) -> Self {
        let kinds: Vec<LinkKind> = (0..radix as u8).map(kind_of).collect();
        Self { radix, stats: vec![PortStats::default(); routers * radix], kinds }
    }

    #[inline]
    fn idx(&self, router: u32, port: u8) -> usize {
        router as usize * self.radix + port as usize
    }

    /// Add stall time to a port.
    #[inline]
    pub fn add_stall(&mut self, router: u32, port: u8, dur: u64) {
        let i = self.idx(router, port);
        self.stats[i].stall_ps += dur;
    }

    /// Add busy (serialization) time and traffic to a port.
    #[inline]
    pub fn add_forward(&mut self, router: u32, port: u8, busy: u64, bytes: u64) {
        let i = self.idx(router, port);
        let s = &mut self.stats[i];
        s.busy_ps += busy;
        s.bytes += bytes;
        s.packets += 1;
    }

    /// Stats of one port.
    #[inline]
    pub fn get(&self, router: u32, port: u8) -> &PortStats {
        &self.stats[self.idx(router, port)]
    }

    /// Kind of a port index.
    #[inline]
    pub fn kind(&self, port: u8) -> LinkKind {
        self.kinds[port as usize]
    }

    /// Iterate `(router, port, kind, stats)` over all ports.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u8, LinkKind, &PortStats)> {
        self.stats.iter().enumerate().map(move |(i, s)| {
            let router = (i / self.radix) as u32;
            let port = (i % self.radix) as u8;
            (router, port, self.kinds[port as usize], s)
        })
    }

    /// Elementwise sum of another table's counters (merging per-partition
    /// tables of one sharded run). Tables must describe the same fabric.
    pub fn merge(&mut self, other: &PortTable) {
        assert_eq!(self.radix, other.radix, "port table radix mismatch");
        assert_eq!(self.stats.len(), other.stats.len(), "port table size mismatch");
        for (a, b) in self.stats.iter_mut().zip(other.stats.iter()) {
            a.stall_ps += b.stall_ps;
            a.busy_ps += b.busy_ps;
            a.bytes += b.bytes;
            a.packets += b.packets;
        }
    }

    /// Sum of stall time over all ports of a kind, ps.
    pub fn total_stall(&self, kind: LinkKind) -> u64 {
        self.iter().filter(|&(_, _, k, _)| k == kind).map(|(_, _, _, s)| s.stall_ps).sum()
    }

    /// Sum of bytes over all ports of a kind.
    pub fn total_bytes(&self, kind: LinkKind) -> u64 {
        self.iter().filter(|&(_, _, k, _)| k == kind).map(|(_, _, _, s)| s.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind_of(p: u8) -> LinkKind {
        match p {
            0..=1 => LinkKind::Terminal,
            2..=4 => LinkKind::Local,
            _ => LinkKind::Global,
        }
    }

    #[test]
    fn accumulates_per_port() {
        let mut t = PortTable::new(3, 6, kind_of);
        t.add_stall(1, 2, 100);
        t.add_stall(1, 2, 50);
        t.add_forward(1, 2, 20, 512);
        t.add_forward(2, 5, 20, 512);
        assert_eq!(t.get(1, 2).stall_ps, 150);
        assert_eq!(t.get(1, 2).busy_ps, 20);
        assert_eq!(t.get(1, 2).bytes, 512);
        assert_eq!(t.get(1, 2).packets, 1);
        assert_eq!(t.get(0, 0).stall_ps, 0);
    }

    #[test]
    fn totals_by_kind() {
        let mut t = PortTable::new(2, 6, kind_of);
        t.add_stall(0, 0, 1); // terminal
        t.add_stall(0, 3, 10); // local
        t.add_stall(1, 5, 100); // global
        t.add_forward(1, 5, 5, 512);
        assert_eq!(t.total_stall(LinkKind::Terminal), 1);
        assert_eq!(t.total_stall(LinkKind::Local), 10);
        assert_eq!(t.total_stall(LinkKind::Global), 100);
        assert_eq!(t.total_bytes(LinkKind::Global), 512);
    }

    #[test]
    fn iter_visits_every_port() {
        let t = PortTable::new(4, 6, kind_of);
        assert_eq!(t.iter().count(), 24);
    }
}
