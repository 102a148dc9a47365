//! CPU affinity masks.
//!
//! A [`CpuSet`] is the standard affinity abstraction (`sched_setaffinity`
//! / cgroup cpuset): a bitmask of CPU IDs a thread may run on. Tai Chi's
//! zero-modification deployment story rests on exactly this mechanism —
//! CP tasks are bound to vCPUs purely by affinity (§4.2), so the mask
//! must treat virtual and physical CPU IDs uniformly.

use taichi_hw::CpuId;

/// A set of CPU IDs, supporting up to 128 CPUs (12 physical + up to 116
/// registered vCPUs — far beyond any SmartNIC configuration).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CpuSet(u128);

impl CpuSet {
    /// The empty set.
    pub const EMPTY: CpuSet = CpuSet(0);

    /// Maximum representable CPU ID.
    pub const MAX_CPU: u32 = 127;

    /// Creates a set containing a single CPU.
    pub fn single(cpu: CpuId) -> Self {
        let mut s = CpuSet::EMPTY;
        s.insert(cpu);
        s
    }

    /// Creates a set covering a contiguous ID range `[lo, hi)`.
    pub fn range(lo: u32, hi: u32) -> Self {
        CpuSet::from_iter((lo..hi).map(CpuId))
    }

    /// Adds a CPU.
    ///
    /// # Panics
    ///
    /// Panics if the CPU ID exceeds [`CpuSet::MAX_CPU`].
    pub fn insert(&mut self, cpu: CpuId) {
        assert!(
            cpu.0 <= Self::MAX_CPU,
            "CPU id {} out of CpuSet range",
            cpu.0
        );
        self.0 |= 1u128 << cpu.0;
    }

    /// Removes a CPU.
    pub fn remove(&mut self, cpu: CpuId) {
        if cpu.0 <= Self::MAX_CPU {
            self.0 &= !(1u128 << cpu.0);
        }
    }

    /// True when the set contains `cpu`.
    pub fn contains(&self, cpu: CpuId) -> bool {
        cpu.0 <= Self::MAX_CPU && (self.0 >> cpu.0) & 1 == 1
    }

    /// Number of CPUs in the set.
    pub fn len(&self) -> u32 {
        self.0.count_ones()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates the member CPUs in ascending ID order.
    pub fn iter(&self) -> impl Iterator<Item = CpuId> + '_ {
        (0..=Self::MAX_CPU)
            .filter(|&i| (self.0 >> i) & 1 == 1)
            .map(CpuId)
    }
}

impl std::fmt::Debug for CpuSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CpuSet{{")?;
        let mut first = true;
        for c in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}", c.0)?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl FromIterator<CpuId> for CpuSet {
    fn from_iter<I: IntoIterator<Item = CpuId>>(iter: I) -> Self {
        let mut s = CpuSet::EMPTY;
        for c in iter {
            s.insert(c);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = CpuSet::EMPTY;
        assert!(s.is_empty());
        s.insert(CpuId(3));
        s.insert(CpuId(100));
        assert!(s.contains(CpuId(3)));
        assert!(s.contains(CpuId(100)));
        assert!(!s.contains(CpuId(4)));
        assert_eq!(s.len(), 2);
        s.remove(CpuId(3));
        assert!(!s.contains(CpuId(3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn range_and_iter() {
        let s = CpuSet::range(8, 12);
        let ids: Vec<u32> = s.iter().map(|c| c.0).collect();
        assert_eq!(ids, vec![8, 9, 10, 11]);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn single_and_from_iter() {
        let s = CpuSet::single(CpuId(5));
        assert_eq!(s.len(), 1);
        assert!(s.contains(CpuId(5)));
        let t: CpuSet = [CpuId(1), CpuId(2)].into_iter().collect();
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of CpuSet range")]
    fn oversized_id_panics() {
        let mut s = CpuSet::EMPTY;
        s.insert(CpuId(128));
    }

    #[test]
    fn debug_format() {
        let s = CpuSet::range(0, 3);
        assert_eq!(format!("{s:?}"), "CpuSet{0,1,2}");
    }

    #[test]
    fn out_of_range_queries_are_safe() {
        let s = CpuSet::range(0, 4);
        assert!(!s.contains(CpuId(200)));
        let mut s2 = s;
        s2.remove(CpuId(200)); // no-op, no panic
        assert_eq!(s2, s);
    }
}
