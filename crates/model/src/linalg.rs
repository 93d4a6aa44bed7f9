//! Small dense linear algebra: Gaussian elimination with partial pivoting.
//!
//! The Markov chains in this crate have at most a few dozen states, so a
//! straightforward O(n³) solve is both fast and dependency-free.

/// Solve `A x = b` in place. `a` is row-major `n×n` and `b` has length
/// `n`; on success `b` holds `x`. `a` is left holding the eliminated upper
/// triangle; its entries below the diagonal are unspecified.
///
/// Returns `None` if the matrix is (numerically) singular, or if any pivot
/// candidate is not finite (a NaN or infinite entry in the column being
/// eliminated).
pub fn solve(a: &mut [f64], b: &mut [f64]) -> Option<()> {
    let n = b.len();
    assert_eq!(a.len(), n * n, "shape mismatch");

    for col in 0..n {
        // Partial pivot: the largest magnitude in the column, the last
        // one on ties.
        let mut pivot = col;
        let mut best = 0.0;
        for i in col..n {
            let v = a[i * n + col].abs();
            if !v.is_finite() {
                return None;
            }
            if i == col || v >= best {
                pivot = i;
                best = v;
            }
        }
        if best < 1e-300 {
            return None;
        }
        // Columns left of `col` in rows `col..n` are never read again, so
        // the swap and the row updates skip them, and the updates also skip
        // the entry they would cancel in column `col` itself.
        if pivot != col {
            let (top, bottom) = a.split_at_mut(pivot * n);
            top[col * n + col..(col + 1) * n].swap_with_slice(&mut bottom[col..n]);
            b.swap(col, pivot);
        }

        let (upper, lower) = a.split_at_mut((col + 1) * n);
        let pivot_row = &upper[col * n..];
        let inv = 1.0 / pivot_row[col];
        for (i, row) in lower.chunks_exact_mut(n).enumerate() {
            let factor = row[col] * inv;
            if factor == 0.0 {
                continue;
            }
            for (x, p) in row[col + 1..].iter_mut().zip(&pivot_row[col + 1..]) {
                *x -= factor * p;
            }
            b[col + 1 + i] -= factor * b[col];
        }
    }

    // Back substitution, overwriting `b` from the bottom row up.
    for row in (0..n).rev() {
        let coeffs = &a[row * n..(row + 1) * n];
        let mut acc = b[row];
        for (c, x) in coeffs[row + 1..].iter().zip(&b[row + 1..]) {
            acc -= c * x;
        }
        b[row] = acc / coeffs[row];
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Solve a copy of `a x = b`, returning `x`.
    fn solved(a: &[f64], b: &[f64]) -> Option<Vec<f64>> {
        let mut a = a.to_vec();
        let mut x = b.to_vec();
        solve(&mut a, &mut x).map(|()| x)
    }

    #[test]
    fn identity() {
        let x = solved(&[1.0, 0.0, 0.0, 1.0], &[3.0, 4.0]).unwrap();
        assert_eq!(x, vec![3.0, 4.0]);
    }

    #[test]
    fn known_2x2() {
        // 2x + y = 5 ; x - y = 1  → x = 2, y = 1
        let x = solved(&[2.0, 1.0, 1.0, -1.0], &[5.0, 1.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn requires_pivoting() {
        // Leading zero forces a row swap.
        let x = solved(&[0.0, 1.0, 1.0, 0.0], &[7.0, 9.0]).unwrap();
        assert_eq!(x, vec![9.0, 7.0]);
    }

    #[test]
    fn singular_returns_none() {
        assert!(solved(&[1.0, 2.0, 2.0, 4.0], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn empty_system_is_trivially_solved() {
        assert_eq!(solved(&[], &[]), Some(vec![]));
    }

    #[test]
    fn non_finite_pivot_candidates_return_none() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            // In the first column, on and below the diagonal.
            assert!(solved(&[bad, 1.0, 1.0, 1.0], &[1.0, 2.0]).is_none());
            assert!(solved(&[1.0, 1.0, bad, 1.0], &[1.0, 2.0]).is_none());
            // Reaching the second column's candidate through elimination.
            assert!(solved(&[2.0, 1.0, 1.0, bad], &[1.0, 2.0]).is_none());
        }
    }

    #[test]
    fn non_finite_right_hand_side_is_not_a_pivot() {
        // Only the matrix is searched for pivots: a NaN in `b` flows
        // through to `x`, where callers such as `Chain::expected_time`
        // reject it.
        let x = solved(&[1.0, 0.0, 0.0, 1.0], &[f64::NAN, 1.0]).unwrap();
        assert!(x[0].is_nan());
        assert_eq!(x[1], 1.0);
    }

    #[test]
    fn ties_pivot_on_the_last_candidate() {
        // Equal magnitudes in the first column: the last row becomes the
        // pivot, so the elimination (and its rounding) follows that row.
        let a = [1.0, 3.0, -1.0, 1.0];
        let mut m = a.to_vec();
        let mut x = vec![1.0, 0.1];
        solve(&mut m, &mut x).unwrap();
        // Swapped: row 0 is now (-1, 1).
        assert_eq!(&m[..2], &[-1.0, 1.0]);
        assert!((a[0] * x[0] + a[1] * x[1] - 1.0).abs() < 1e-12);
        assert!((a[2] * x[0] + a[3] * x[1] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn random_system_residual_is_small() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let n = 12;
        let a: Vec<f64> = (0..n * n)
            .map(|ij| {
                if ij / n == ij % n {
                    10.0
                } else {
                    rng.gen_range(-1.0..1.0)
                }
            })
            .collect();
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let x = solved(&a, &b).unwrap();
        for i in 0..n {
            let dot: f64 = (0..n).map(|j| a[i * n + j] * x[j]).sum();
            assert!((dot - b[i]).abs() < 1e-9, "row {i}: {dot} vs {}", b[i]);
        }
    }
}
