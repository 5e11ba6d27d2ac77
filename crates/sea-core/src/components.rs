//! Connected components of the support graph and the paper's **Modified
//! Algorithm** for keeping dual iterates bounded.
//!
//! For the SAM and fixed-totals duals (`ζ₂`, `ζ₃`) the maximizer set is not
//! a single point: within any connected component of the graph whose edges
//! are the strictly positive entries `xᵢⱼ > 0`, a constant can be added to
//! every `λᵢ` and subtracted from every `μⱼ′` without changing `ζ`. The
//! paper's Modified Algorithm (end of §3.1) exploits this: whenever some
//! `|λᵢ| > R`, shift the component containing it so its multipliers return
//! to the bounded cube, guaranteeing the convergence analysis applies.

use crate::storage::{Storage, Vars};

/// Union–find over `m + n` nodes (rows `0..m`, columns `m..m+n`) with
/// path-halving and union by size.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            let gp = self.parent[self.parent[x] as usize];
            self.parent[x] = gp;
            x = gp as usize;
        }
        x
    }

    /// Merge the sets containing `a` and `b`; returns the new root.
    pub fn union(&mut self, a: usize, b: usize) -> usize {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        ra
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

/// Compute the component label of each row and column of the bipartite
/// support graph: rows `i` and columns `j` are connected when a *stored*
/// entry `x[i, j] > threshold`. Returns `(row_labels, col_labels)` where
/// labels are root ids in the combined `m + n` index space. Dense storage
/// visits every cell in row-major order; sparse storage visits only the
/// stored support, making this `O(nnz α(m+n))`.
pub fn support_components<S: Storage>(x: &S, threshold: f64) -> (Vec<usize>, Vec<usize>) {
    let (m, n) = (x.rows(), x.cols());
    let mut uf = UnionFind::new(m + n);
    for i in 0..m {
        let row = &x.values()[x.row_range(i)];
        Vars::of(x, None, i).for_each(|j, k| {
            if row[k] > threshold {
                uf.union(i, m + j);
            }
        });
    }
    let rows = (0..m).map(|i| uf.find(i)).collect();
    let cols = (0..n).map(|j| uf.find(m + j)).collect();
    (rows, cols)
}

/// The paper's Modified Algorithm step: if any `|λᵢ| > bound`, shift every
/// component containing an offender by the offending value — subtracting it
/// from the component's `λ`s and adding it to the component's `μ`s — which
/// leaves `ζ₂`/`ζ₃` unchanged but returns the iterates to a bounded cube.
///
/// `x` is the current primal iterate defining the support graph, read
/// over its stored entries only, so sparse iterates pay only for those.
/// Returns the number of components shifted.
pub fn normalize_multipliers<S: Storage>(
    x: &S,
    lambda: &mut [f64],
    mu: &mut [f64],
    bound: f64,
) -> usize {
    debug_assert_eq!(lambda.len(), x.rows());
    debug_assert_eq!(mu.len(), x.cols());
    if lambda.iter().all(|&l| l.abs() <= bound) {
        return 0;
    }
    let (row_labels, col_labels) = support_components(x, 0.0);
    apply_component_shifts(&row_labels, &col_labels, lambda, mu, bound)
}

/// Shared tail of the Modified Algorithm: pick, per component, the first
/// offending `λ` as the shift value, subtract it from the component's `λ`s
/// and add it to its `μ`s. Returns the number of components shifted.
fn apply_component_shifts(
    row_labels: &[usize],
    col_labels: &[usize],
    lambda: &mut [f64],
    mu: &mut [f64],
    bound: f64,
) -> usize {
    let mut shift_of_root: std::collections::HashMap<usize, f64> = std::collections::HashMap::new();
    for (i, &l) in lambda.iter().enumerate() {
        if l.abs() > bound {
            shift_of_root.entry(row_labels[i]).or_insert(l);
        }
    }
    for (i, l) in lambda.iter_mut().enumerate() {
        if let Some(&sh) = shift_of_root.get(&row_labels[i]) {
            *l -= sh;
        }
    }
    for (j, m) in mu.iter_mut().enumerate() {
        if let Some(&sh) = shift_of_root.get(&col_labels[j]) {
            *m += sh;
        }
    }
    shift_of_root.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_linalg::{CsrMatrix, DenseMatrix};

    fn dense(m: usize, n: usize, x: &[f64]) -> DenseMatrix {
        DenseMatrix::from_vec(m, n, x.to_vec()).unwrap()
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert!(!uf.connected(0, 1));
        uf.union(0, 1);
        uf.union(3, 4);
        assert!(uf.connected(0, 1));
        assert!(uf.connected(4, 3));
        assert!(!uf.connected(1, 3));
        uf.union(1, 3);
        assert!(uf.connected(0, 4));
    }

    #[test]
    fn components_of_block_diagonal_support() {
        // 2x2 block support: rows {0}, cols {0} one component; rows {1},
        // cols {1} another.
        let x = dense(2, 2, &[1.0, 0.0, 0.0, 2.0]);
        let (r, c) = support_components(&x, 0.0);
        assert_eq!(r[0], c[0]);
        assert_eq!(r[1], c[1]);
        assert_ne!(r[0], r[1]);
    }

    #[test]
    fn dense_support_is_one_component() {
        let x = dense(2, 3, &[1.0; 6]);
        let (r, c) = support_components(&x, 0.0);
        assert!(r.iter().chain(c.iter()).all(|&l| l == r[0]));
    }

    #[test]
    fn normalize_shifts_offending_component_only() {
        // Two components; only the first offends.
        let x = dense(2, 2, &[1.0, 0.0, 0.0, 2.0]);
        let mut lambda = vec![100.0, 1.0];
        let mut mu = vec![-3.0, 4.0];
        let shifted = normalize_multipliers(&x, &mut lambda, &mut mu, 10.0);
        assert_eq!(shifted, 1);
        assert_eq!(lambda, vec![0.0, 1.0]);
        assert_eq!(mu, vec![97.0, 4.0]);
    }

    #[test]
    fn normalize_noop_when_bounded() {
        let x = dense(2, 2, &[1.0; 4]);
        let mut lambda = vec![1.0, -2.0];
        let mut mu = vec![0.5, 0.5];
        let shifted = normalize_multipliers(&x, &mut lambda, &mut mu, 10.0);
        assert_eq!(shifted, 0);
        assert_eq!(lambda, vec![1.0, -2.0]);
    }

    #[test]
    fn csr_components_match_dense_components() {
        let dense = dense(2, 3, &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
        let (r_d, c_d) = support_components(&dense, 0.0);
        // CSR drops the zeros but labels must describe the same partition.
        let csr = CsrMatrix::from_dense_pruned(&dense).unwrap();
        let (r_s, c_s) = support_components(&csr, 0.0);
        for a in 0..2 {
            for b in 0..2 {
                assert_eq!(r_d[a] == r_d[b], r_s[a] == r_s[b]);
            }
        }
        for a in 0..3 {
            for b in 0..3 {
                assert_eq!(c_d[a] == c_d[b], c_s[a] == c_s[b]);
            }
        }
    }

    #[test]
    fn normalize_csr_matches_dense() {
        let dense = dense(2, 2, &[1.0, 0.0, 0.0, 2.0]);
        let csr = CsrMatrix::from_dense_pruned(&dense).unwrap();
        let mut l_ref = vec![100.0, 1.0];
        let mut m_ref = vec![-3.0, 4.0];
        let n_ref = normalize_multipliers(&dense, &mut l_ref, &mut m_ref, 10.0);
        let mut lambda = vec![100.0, 1.0];
        let mut mu = vec![-3.0, 4.0];
        let shifted = normalize_multipliers(&csr, &mut lambda, &mut mu, 10.0);
        assert_eq!(shifted, n_ref);
        assert_eq!(lambda, l_ref);
        assert_eq!(mu, m_ref);
    }

    #[test]
    fn normalize_preserves_lambda_plus_mu_on_support() {
        // λᵢ + μⱼ is the quantity entering x(λ,μ); shifting must preserve
        // it on every edge of the offending component.
        let x = dense(2, 2, &[1.0, 1.0, 1.0, 1.0]);
        let mut lambda = vec![50.0, 30.0];
        let mut mu = vec![-3.0, 4.0];
        let before: Vec<f64> = (0..2)
            .flat_map(|i| (0..2).map(move |j| (i, j)))
            .map(|(i, j)| lambda[i] + mu[j])
            .collect();
        normalize_multipliers(&x, &mut lambda, &mut mu, 10.0);
        let after: Vec<f64> = (0..2)
            .flat_map(|i| (0..2).map(move |j| (i, j)))
            .map(|(i, j)| lambda[i] + mu[j])
            .collect();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-12);
        }
    }
}
