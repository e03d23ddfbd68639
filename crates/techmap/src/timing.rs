//! The load-independent timing model shared by the mapper, the mapped
//! netlist's arrival/required/slack queries and the differential timing
//! tests.
//!
//! Boolean matching is NPN-based and does not track which cut leaf lands on
//! which cell pin, so pin-to-pin delays are applied through a *conservative
//! sorted pairing*: leaf arrivals sorted descending are paired with pin
//! delays sorted descending, which is the worst case over every legal
//! pin assignment (the rearrangement inequality). The same pairing drives
//! the backward required-time propagation, so a gate whose output meets its
//! required time always yields non-negative slack on every leaf.
//!
//! LUT mapping uses the degenerate form of the same model: every pin of a
//! LUT has unit delay (one level), making arrival times plain LUT depths.

// Cuts carry at most `MAX_CUT_LEAVES` leaves and cells at most 4 pins, so all
// the pairing scratch space fits in fixed stack buffers of that size — these
// helpers run in the mapper's innermost loop (per node × cut × cell, repeated
// every recovery pass) and must not allocate.
use crate::cuts::MAX_CUT_LEAVES;

/// Sorts the first `n` slots of a fixed buffer descending (insertion sort:
/// n ≤ 6, and comparisons only — float `max`/compare never round, so the
/// result is bitwise independent of the sort algorithm).
fn sort_desc(buf: &mut [f64; MAX_CUT_LEAVES], n: usize) {
    for i in 1..n {
        let mut j = i;
        while j > 0 && buf[j] > buf[j - 1] {
            buf.swap(j, j - 1);
            j -= 1;
        }
    }
}

/// A cell's pin delays the way the pairing reads them: sorted descending and
/// padded with the slowest pin to [`MAX_CUT_LEAVES`] entries (a cut can have
/// more leaves than the matched cell has pins when its function does not
/// depend on every leaf; the extras conservatively get the slowest pin).
/// [`crate::library::CellLibrary`] keeps one per cell, so the mapper's inner
/// loop never sorts.
pub(crate) fn sorted_pin_delays(pin_delays_ps: &[f64]) -> [f64; MAX_CUT_LEAVES] {
    let mut pins = [0.0f64; MAX_CUT_LEAVES];
    let m = pin_delays_ps.len().min(MAX_CUT_LEAVES);
    pins[..m].copy_from_slice(&pin_delays_ps[..m]);
    sort_desc(&mut pins, m);
    let slowest = pins[0];
    for slot in pins.iter_mut().skip(m.max(1)) {
        *slot = slowest;
    }
    pins
}

/// Assigns one pin delay to each cut leaf: leaves are ranked by arrival time
/// (descending, ties broken by position so the pairing is deterministic) and
/// the `rank`-th slowest leaf receives the `rank`-th slowest pin delay.
/// Returns the assigned delay per leaf *in the original leaf order*, in the
/// first `leaf_arrivals.len()` slots of a fixed array (the rest are 0).
///
/// A cut can have more leaves than the matched cell has pins (the cut
/// function may not depend on every leaf); the extra leaves conservatively
/// receive the slowest pin delay. A cell with more pins than leaves
/// contributes only its slowest `leaf_arrivals.len()` pins.
///
/// # Panics
/// Panics if there are more than [`MAX_CUT_LEAVES`] leaves.
pub fn assign_pin_delays(leaf_arrivals: &[f64], pin_delays_ps: &[f64]) -> [f64; MAX_CUT_LEAVES] {
    assign_sorted_pin_delays(leaf_arrivals, &sorted_pin_delays(pin_delays_ps))
}

/// [`assign_pin_delays`] over pins already in [`sorted_pin_delays`] form.
pub(crate) fn assign_sorted_pin_delays(
    leaf_arrivals: &[f64],
    pins: &[f64; MAX_CUT_LEAVES],
) -> [f64; MAX_CUT_LEAVES] {
    let n = leaf_arrivals.len();
    assert!(
        n <= MAX_CUT_LEAVES,
        "cuts are limited to {MAX_CUT_LEAVES} leaves"
    );
    let mut order = [0usize; MAX_CUT_LEAVES];
    for (i, slot) in order.iter_mut().take(n).enumerate() {
        *slot = i;
    }
    order[..n].sort_by(|&a, &b| {
        leaf_arrivals[b]
            .partial_cmp(&leaf_arrivals[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut assigned = [0.0; MAX_CUT_LEAVES];
    for (rank, &leaf) in order[..n].iter().enumerate() {
        assigned[leaf] = pins[rank];
    }
    assigned
}

/// Arrival time of a gate output under the conservative sorted pairing:
/// `max_i(arrival[i] + assigned_delay[i])`, or 0 for a gate with no leaves.
///
/// The pairing never needs the permutation itself: the max over the sorted
/// pairing equals pairing the descending arrivals with the descending pins
/// rank by rank, computed here allocation-free.
///
/// # Panics
/// Panics if there are more than [`MAX_CUT_LEAVES`] leaves.
pub fn gate_arrival(leaf_arrivals: &[f64], pin_delays_ps: &[f64]) -> f64 {
    gate_arrival_sorted(leaf_arrivals, &sorted_pin_delays(pin_delays_ps))
}

/// [`gate_arrival`] over pins already in [`sorted_pin_delays`] form.
pub(crate) fn gate_arrival_sorted(leaf_arrivals: &[f64], pins: &[f64; MAX_CUT_LEAVES]) -> f64 {
    let n = leaf_arrivals.len();
    assert!(
        n <= MAX_CUT_LEAVES,
        "cuts are limited to {MAX_CUT_LEAVES} leaves"
    );
    let mut arrivals = [0.0f64; MAX_CUT_LEAVES];
    arrivals[..n].copy_from_slice(leaf_arrivals);
    sort_desc(&mut arrivals, n);
    let mut worst = 0.0f64;
    for rank in 0..n {
        let sum = arrivals[rank] + pins[rank];
        if sum > worst {
            worst = sum;
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairing_is_worst_case_over_permutations() {
        let arrivals = [10.0, 30.0, 20.0];
        let pins = [5.0, 1.0, 3.0];
        let model = gate_arrival(&arrivals, &pins);
        // Exhaustive max over all assignments of pins to leaves.
        let perms: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let brute = perms
            .iter()
            .map(|p| {
                arrivals
                    .iter()
                    .zip(p)
                    .map(|(a, &i)| a + pins[i])
                    .fold(0.0, f64::max)
            })
            .fold(0.0, f64::max);
        assert_eq!(model, brute);
        // Slowest leaf (30) gets the slowest pin (5).
        assert_eq!(model, 35.0);
    }

    #[test]
    fn assignment_preserves_leaf_order() {
        let assigned = assign_pin_delays(&[1.0, 9.0], &[4.0, 2.0]);
        // Leaf 1 arrives last, so it gets the slow pin.
        assert_eq!(assigned, [2.0, 4.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn extra_leaves_get_the_slowest_pin() {
        let assigned = assign_pin_delays(&[1.0, 2.0, 3.0], &[7.0]);
        assert_eq!(assigned[..3], [7.0, 7.0, 7.0]);
        // More pins than leaves: only the slowest pins are used.
        let arr = gate_arrival(&[1.0], &[2.0, 9.0]);
        assert_eq!(arr, 10.0);
    }

    #[test]
    fn ties_break_by_position_deterministically() {
        let a = assign_pin_delays(&[5.0, 5.0], &[3.0, 1.0]);
        assert_eq!(a[..2], [3.0, 1.0]);
    }

    #[test]
    fn empty_cut_has_zero_arrival() {
        assert_eq!(gate_arrival(&[], &[]), 0.0);
    }
}
