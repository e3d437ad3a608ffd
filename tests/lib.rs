//! Shared helpers for the cross-crate integration test suite.

use vf_core::prelude::*;

/// A machine with `p` processors and a zero-cost model (tests that only
/// check counts and data correctness).
pub fn zero_machine(p: usize) -> Machine {
    Machine::new(p, CostModel::zero())
}

/// A machine with `p` processors and the iPSC/860-like cost model.
pub fn ipsc_machine(p: usize) -> Machine {
    Machine::new(p, CostModel::ipsc860(p))
}

/// Builds a 1-D distribution over `p` linear processors.
pub fn dist_1d(dist_type: DistType, n: usize, p: usize) -> Distribution {
    Distribution::new(dist_type, IndexDomain::d1(n), ProcessorView::linear(p))
        .expect("valid 1-D distribution")
}

/// Builds a 2-D distribution over `p` linear processors (factored into a
/// grid when the type distributes both dimensions).
pub fn dist_2d(dist_type: DistType, n: usize, m: usize, p: usize) -> Distribution {
    Distribution::new(dist_type, IndexDomain::d2(n, m), ProcessorView::linear(p))
        .expect("valid 2-D distribution")
}

/// Every processor's local segment of `array`, copied out — the storage
/// layout two runs must agree on to be bitwise identical.
pub fn locals_of<T: Element>(array: &DistArray<T>) -> Vec<Vec<T>> {
    (0..array.num_procs())
        .map(|q| array.local(ProcId(q)).to_vec())
        .collect()
}
