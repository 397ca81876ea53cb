//! Strongly typed identifiers.
//!
//! All identifiers are thin `u32`/`u8` newtypes so they stay `Copy` and
//! hash/compare as integers (hot-path friendly), while the type system keeps
//! node, router, group and port spaces from being mixed up.

/// A compute node (endpoint). Nodes are numbered consecutively:
/// `node = router * nodes_per_router + terminal_index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// A router. Routers are numbered consecutively:
/// `router = group * routers_per_group + local_index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouterId(pub u32);

/// A group of routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u32);

/// A router port index. Ports are laid out as
/// `[terminals | locals | globals]` (see [`crate::topo::Topology`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Port(pub u8);

impl NodeId {
    /// Raw index as usize (for array indexing).
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl RouterId {
    /// Raw index as usize (for array indexing).
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl GroupId {
    /// Raw index as usize (for array indexing).
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl Port {
    /// Raw index as usize (for array indexing).
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}
impl std::fmt::Display for RouterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}
impl std::fmt::Display for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "G{}", self.0)
    }
}
impl std::fmt::Display for Port {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Classification of a router port / link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// Router ↔ compute node.
    Terminal,
    /// Router ↔ router within one group.
    Local,
    /// Router ↔ router across groups.
    Global,
}

impl std::fmt::Display for LinkKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkKind::Terminal => write!(f, "terminal"),
            LinkKind::Local => write!(f, "local"),
            LinkKind::Global => write!(f, "global"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(RouterId(7).to_string(), "r7");
        assert_eq!(GroupId(0).to_string(), "G0");
        assert_eq!(Port(14).to_string(), "p14");
        assert_eq!(LinkKind::Global.to_string(), "global");
    }

    #[test]
    fn ids_are_ordered_by_raw_value() {
        assert!(NodeId(1) < NodeId(2));
        assert!(Port(0) < Port(14));
    }
}
