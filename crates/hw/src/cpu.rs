//! CPU identifiers and the SmartNIC SoC topology.

use std::fmt;

/// Identifies a CPU visible to the SmartNIC OS.
///
/// Physical CPUs occupy the low IDs; Tai Chi registers its vCPUs after
/// them (they look like additional physical cores to the OS, per §4).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpuId(pub u32);

impl CpuId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// Description of the SmartNIC SoC.
///
/// Defaults follow the paper's evaluation platform (Table 4): 12 CPUs
/// split 8 data-plane / 4 control-plane.
#[derive(Clone, Debug)]
pub struct SmartNicSpec {
    /// Number of physical CPUs on the SoC.
    pub num_cpus: u32,
    /// Number of those CPUs statically reserved for the data plane.
    pub dp_cpus: u32,
}

impl Default for SmartNicSpec {
    fn default() -> Self {
        SmartNicSpec {
            num_cpus: 12,
            dp_cpus: 8,
        }
    }
}

impl SmartNicSpec {
    /// Creates a spec with an explicit DP/CP split.
    ///
    /// # Panics
    ///
    /// Panics when `dp_cpus > num_cpus` or either count is zero.
    pub fn with_split(num_cpus: u32, dp_cpus: u32) -> Self {
        assert!(num_cpus > 0, "SmartNIC needs at least one CPU");
        assert!(
            dp_cpus > 0 && dp_cpus < num_cpus,
            "need at least one DP and one CP CPU (got {dp_cpus}/{num_cpus})"
        );
        SmartNicSpec { num_cpus, dp_cpus }
    }

    /// IDs of the data-plane CPUs (the low range, matching production
    /// practice of packing DP cores first).
    pub fn dp_cpu_ids(&self) -> Vec<CpuId> {
        (0..self.dp_cpus).map(CpuId).collect()
    }

    /// IDs of the control-plane CPUs.
    pub fn cp_cpu_ids(&self) -> Vec<CpuId> {
        (self.dp_cpus..self.num_cpus).map(CpuId).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_platform() {
        let s = SmartNicSpec::default();
        assert_eq!(s.num_cpus, 12);
        assert_eq!(s.dp_cpus, 8);
    }

    #[test]
    fn id_partitioning() {
        let s = SmartNicSpec::default();
        assert_eq!(s.dp_cpu_ids(), (0..8).map(CpuId).collect::<Vec<_>>());
        assert_eq!(s.cp_cpu_ids(), (8..12).map(CpuId).collect::<Vec<_>>());
    }

    #[test]
    fn roles() {
        // Data-plane CPUs take the low IDs, control-plane CPUs the rest.
        let s = SmartNicSpec::with_split(16, 10);
        assert_eq!(s.dp_cpu_ids(), (0..10).map(CpuId).collect::<Vec<_>>());
        assert_eq!(s.cp_cpu_ids(), (10..16).map(CpuId).collect::<Vec<_>>());
    }

    #[test]
    fn custom_split() {
        let s = SmartNicSpec::with_split(16, 10);
        assert_eq!((s.num_cpus, s.dp_cpus), (16, 10));
    }

    #[test]
    #[should_panic(expected = "at least one DP and one CP")]
    fn split_requires_both_planes() {
        SmartNicSpec::with_split(8, 8);
    }

    #[test]
    fn cpu_id_display() {
        assert_eq!(CpuId(3).to_string(), "cpu3");
        assert_eq!(format!("{:?}", CpuId(3)), "cpu3");
        assert_eq!(CpuId(5).index(), 5);
    }
}
