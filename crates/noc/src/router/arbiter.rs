//! Round-robin arbitration for the separable switch allocator.

/// A rotating-priority (round-robin) arbiter over `n <= 64` requesters.
///
/// Grants the first requester at or after the last winner + 1, which is the
/// standard matrix-free round-robin used in NoC switch allocators:
/// starvation free, and O(1) per arbitration on a request bitmask (a shift
/// and a `trailing_zeros`) with no allocation.
#[derive(Clone, Debug)]
pub struct RoundRobin {
    n: u8,
    last: u8,
}

impl RoundRobin {
    pub fn new(n: usize) -> RoundRobin {
        assert!(n > 0 && n <= 64, "round-robin arbiters hold 1..=64 requesters (got {n})");
        RoundRobin { n: n as u8, last: (n - 1) as u8 }
    }

    /// Grant among the requesters whose bits are set in `mask` (bit `i` is
    /// requester `i`; bits at or above `n` must be clear); updates the
    /// priority pointer on a grant.
    #[inline]
    pub fn grant(&mut self, mask: u64) -> Option<usize> {
        debug_assert!(self.n == 64 || mask >> self.n == 0, "request beyond the arbiter's width");
        if mask == 0 {
            return None;
        }
        // Requesters at or after the rotated origin win first; otherwise
        // the lowest requester wraps around.
        let start = if self.last + 1 == self.n { 0 } else { self.last + 1 };
        let high = mask >> start;
        let i =
            if high != 0 { start as u32 + high.trailing_zeros() } else { mask.trailing_zeros() };
        self.last = i as u8;
        Some(i as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn grants_rotate_fairly() {
        let mut rr = RoundRobin::new(4);
        // All requesting: must cycle 0,1,2,3,0,...
        let seq: Vec<usize> = (0..8).map(|_| rr.grant(0b1111).unwrap()).collect();
        assert_eq!(seq, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn skips_non_requesters() {
        let mut rr = RoundRobin::new(4);
        assert_eq!(rr.grant(0b0100), Some(2));
        assert_eq!(rr.grant(0b0100), Some(2));
        assert_eq!(rr.grant(0b1011), Some(3));
    }

    #[test]
    fn none_when_no_requests() {
        let mut rr = RoundRobin::new(3);
        assert_eq!(rr.grant(0), None);
        // Priority pointer unchanged by failed grants.
        assert_eq!(rr.grant(0b111), Some(0));
    }

    #[test]
    fn no_starvation_under_contention() {
        let mut rr = RoundRobin::new(5);
        let mut counts = [0usize; 5];
        for _ in 0..100 {
            let g = rr.grant(0b11111).unwrap();
            counts[g] += 1;
        }
        for c in counts {
            assert_eq!(c, 20);
        }
    }

    #[test]
    fn full_width_arbiter_wraps() {
        let mut rr = RoundRobin::new(64);
        assert_eq!(rr.grant(1 << 63), Some(63));
        assert_eq!(rr.grant(1 << 63 | 1), Some(0));
        assert_eq!(rr.grant(u64::MAX), Some(1));
    }

    /// The closure-scan arbiter the bitmask version replaced: test `last +
    /// 1, last + 2, ...` modulo `n` one requester at a time.
    fn scan_grant(n: usize, last: &mut usize, mask: u64) -> Option<usize> {
        for off in 1..=n {
            let i = (*last + off) % n;
            if mask & (1 << i) != 0 {
                *last = i;
                return Some(i);
            }
        }
        None
    }

    /// Dense, sparse and single-bit request masks.
    fn any_mask() -> impl Strategy<Value = u64> {
        prop_oneof![
            any::<u64>(),
            (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(a, b, c)| a & b & c),
            (0u32..64).prop_map(|b| 1u64 << b),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

        /// Same grant, same pointer update as the scan for every width,
        /// pointer position and request mask — over a sequence of grants,
        /// so pointer positions reached by earlier grants are covered too.
        #[test]
        fn bitmask_grant_matches_scan(
            n in 1usize..65,
            last in 0usize..64,
            masks in proptest::collection::vec(any_mask(), 1..8),
        ) {
            let last = last % n;
            let width = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            let mut rr = RoundRobin::new(n);
            rr.last = last as u8;
            let mut oracle = last;
            for m in masks {
                let m = m & width;
                prop_assert_eq!(rr.grant(m), scan_grant(n, &mut oracle, m));
                prop_assert_eq!(rr.last as usize, oracle);
            }
        }
    }

    /// Exhaustive over every mask and pointer position of the narrow
    /// arbiters the router actually builds (5 ports, a few VCs per port).
    #[test]
    fn bitmask_grant_matches_scan_exhaustively_up_to_12() {
        for n in 1..=12usize {
            for last in 0..n {
                for m in 0..1u64 << n {
                    let mut rr = RoundRobin::new(n);
                    rr.last = last as u8;
                    let mut oracle = last;
                    assert_eq!(rr.grant(m), scan_grant(n, &mut oracle, m), "n {n} last {last}");
                    assert_eq!(rr.last as usize, oracle);
                }
            }
        }
    }
}
