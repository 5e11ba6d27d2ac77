//! Sorting kernels used by exact equilibration.
//!
//! The paper is explicit about its sorting technology (§4.1.1, §5.1.1):
//! exact equilibration requires sorting the breakpoint array of each
//! row/column subproblem, and the FORTRAN implementation used **HEAPSORT**
//! when arrays were "substantially larger than one hundred elements" and
//! **STRAIGHT INSERTION SORT** for the short arrays (10–120 elements) of the
//! general-problem experiments. We reproduce both and dispatch on length in
//! [`argsort`], so the reproduction's operation profile matches the paper's
//! `7n + n ln n + 2n` per-subproblem count.
//!
//! All routines here sort an *index permutation* by a key slice (argsort),
//! because equilibration must keep breakpoints aligned with their
//! coefficient arrays.

/// Length at or below which straight insertion sort is used, per the paper's
/// "substantially larger than one hundred elements" guidance.
pub const INSERTION_THRESHOLD: usize = 120;

/// Sort `idx` ascending by `key[i]` using straight insertion sort.
///
/// O(k²) worst case but with a tiny constant; the method of choice in the
/// paper for the short (10–120 element) arrays of the general experiments.
///
/// # Panics
/// Panics if any index in `idx` is out of bounds for `key`.
#[inline]
pub fn insertion_argsort(idx: &mut [u32], key: &[f64]) {
    for i in 1..idx.len() {
        let cur = idx[i];
        let cur_key = key[cur as usize];
        let mut j = i;
        while j > 0 && key[idx[j - 1] as usize] > cur_key {
            idx[j] = idx[j - 1];
            j -= 1;
        }
        idx[j] = cur;
    }
}

/// Sort `idx` ascending by `key[i]` using heapsort (in-place, no
/// allocation), as the paper's implementation did for long arrays.
///
/// # Panics
/// Panics if any index in `idx` is out of bounds for `key`.
#[inline]
pub fn heap_argsort(idx: &mut [u32], key: &[f64]) {
    let n = idx.len();
    if n < 2 {
        return;
    }
    // Build a max-heap.
    for start in (0..n / 2).rev() {
        sift_down(idx, key, start, n);
    }
    // Repeatedly pop the max to the end.
    for end in (1..n).rev() {
        idx.swap(0, end);
        sift_down(idx, key, 0, end);
    }
}

#[inline]
fn sift_down(idx: &mut [u32], key: &[f64], mut root: usize, end: usize) {
    loop {
        let mut child = 2 * root + 1;
        if child >= end {
            return;
        }
        if child + 1 < end && key[idx[child] as usize] < key[idx[child + 1] as usize] {
            child += 1;
        }
        if key[idx[root] as usize] >= key[idx[child] as usize] {
            return;
        }
        idx.swap(root, child);
        root = child;
    }
}

/// Sort `idx` ascending by `key[i]`, dispatching on length exactly as the
/// paper's implementation did: straight insertion up to
/// [`INSERTION_THRESHOLD`] elements, heapsort beyond.
#[inline]
pub fn argsort(idx: &mut [u32], key: &[f64]) {
    if idx.len() <= INSERTION_THRESHOLD {
        insertion_argsort(idx, key);
    } else {
        heap_argsort(idx, key);
    }
}

/// Fill `idx` with `0..idx.len()` (the identity permutation), the standard
/// precursor to an argsort call.
#[inline]
pub fn identity_permutation(idx: &mut [u32]) {
    for (i, v) in idx.iter_mut().enumerate() {
        *v = i as u32;
    }
}

/// Verify that `idx` orders `key` ascending (used in tests and debug
/// assertions).
pub fn is_sorted_by_key(idx: &[u32], key: &[f64]) -> bool {
    idx.windows(2)
        .all(|w| key[w[0] as usize] <= key[w[1] as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fresh_idx(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    #[test]
    fn insertion_sorts_small_array() {
        let key = [3.0, 1.0, 2.0, -5.0];
        let mut idx = fresh_idx(4);
        insertion_argsort(&mut idx, &key);
        assert_eq!(idx, vec![3, 1, 2, 0]);
    }

    #[test]
    fn heap_sorts_small_array() {
        let key = [3.0, 1.0, 2.0, -5.0];
        let mut idx = fresh_idx(4);
        heap_argsort(&mut idx, &key);
        assert_eq!(idx, vec![3, 1, 2, 0]);
    }

    #[test]
    fn empty_and_singleton_are_noops() {
        let key: [f64; 0] = [];
        let mut idx: Vec<u32> = vec![];
        heap_argsort(&mut idx, &key);
        insertion_argsort(&mut idx, &key);
        assert!(idx.is_empty());

        let key = [42.0];
        let mut idx = fresh_idx(1);
        argsort(&mut idx, &key);
        assert_eq!(idx, vec![0]);
    }

    #[test]
    fn handles_duplicates() {
        let key = [2.0, 2.0, 1.0, 2.0, 1.0];
        let mut idx = fresh_idx(5);
        argsort(&mut idx, &key);
        assert!(is_sorted_by_key(&idx, &key));
        // A permutation: all indices present exactly once.
        let mut seen = idx.clone();
        seen.sort_unstable();
        assert_eq!(seen, fresh_idx(5));
    }

    #[test]
    fn dispatch_threshold_routes_long_arrays_through_heapsort() {
        // Above the threshold the result must still be sorted.
        let n = INSERTION_THRESHOLD + 37;
        let key: Vec<f64> = (0..n).map(|i| ((i * 7919) % 104729) as f64).collect();
        let mut idx = fresh_idx(n);
        argsort(&mut idx, &key);
        assert!(is_sorted_by_key(&idx, &key));
    }

    proptest! {
        #[test]
        fn heap_argsort_matches_std_sort(key in proptest::collection::vec(-1e6f64..1e6, 0..300)) {
            let mut idx = fresh_idx(key.len());
            heap_argsort(&mut idx, &key);
            let mut expect = fresh_idx(key.len());
            expect.sort_by(|&a, &b| key[a as usize].partial_cmp(&key[b as usize]).unwrap());
            // Compare resulting key orderings (ties may permute indices).
            let got: Vec<f64> = idx.iter().map(|&i| key[i as usize]).collect();
            let want: Vec<f64> = expect.iter().map(|&i| key[i as usize]).collect();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn insertion_argsort_matches_std_sort(key in proptest::collection::vec(-1e6f64..1e6, 0..120)) {
            let mut idx = fresh_idx(key.len());
            insertion_argsort(&mut idx, &key);
            prop_assert!(is_sorted_by_key(&idx, &key));
            let mut seen: Vec<u32> = idx.clone();
            seen.sort_unstable();
            prop_assert_eq!(seen, fresh_idx(key.len()));
        }
    }
}
