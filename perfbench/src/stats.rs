//! Order statistics and the least-squares fit behind the cost-model
//! calibration.

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by nearest rank; 0 when empty.
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64) * q).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The median of `xs` (the mean of the middle pair for even lengths).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A fitted `run ≈ c + w·W + g·H + l·S`: equation (1) with the
/// engine's time per reduction step `w` and a fixed per-run cost `c`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostFit {
    /// Fixed per-run overhead, µs.
    pub c: f64,
    /// Time per reduction step of the critical path, µs.
    pub w: f64,
    /// Time per word of h-relation, µs.
    pub g: f64,
    /// Time per superstep, µs.
    pub l: f64,
    /// Root-mean-square residual over the mean run time.
    pub err_frac: f64,
}

/// Least-squares fit of `run = c + w·W + g·H + l·S` over
/// `(W, H, S, run)` samples. `None` when the samples do not determine
/// all four parameters (`W`, `H` and `S` must vary independently).
#[must_use]
pub fn fit_cost(samples: &[[f64; 4]]) -> Option<CostFit> {
    // Normal equations AᵀA·x = Aᵀy for rows (1, W, H, S).
    let mut ata = [[0.0f64; 4]; 4];
    let mut aty = [0.0f64; 4];
    for &[w, h, s, y] in samples {
        let row = [1.0, w, h, s];
        for i in 0..4 {
            aty[i] += row[i] * y;
            for j in 0..4 {
                ata[i][j] += row[i] * row[j];
            }
        }
    }
    let [c, w, g, l] = solve(ata, aty)?;
    let n = samples.len() as f64;
    let mean = samples.iter().map(|s| s[3]).sum::<f64>() / n;
    let sq: f64 = samples
        .iter()
        .map(|&[sw, h, s, y]| (y - (c + w * sw + g * h + l * s)).powi(2))
        .sum();
    Some(CostFit {
        c,
        w,
        g,
        l,
        err_frac: (sq / n).sqrt() / mean,
    })
}

/// Gaussian elimination with partial pivoting; `None` if singular.
fn solve<const N: usize>(mut a: [[f64; N]; N], mut b: [f64; N]) -> Option<[f64; N]> {
    for col in 0..N {
        let pivot = (col..N).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        let scale = a.iter().map(|r| r[col].abs()).fold(0.0, f64::max);
        if a[pivot][col].abs() <= 1e-9 * scale.max(1.0) {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        let pivot_row = a[col];
        for row in col + 1..N {
            let f = a[row][col] / pivot_row[col];
            for (x, p) in a[row][col..].iter_mut().zip(&pivot_row[col..]) {
                *x -= f * p;
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = [0.0; N];
    for row in (0..N).rev() {
        let tail: f64 = (row + 1..N).map(|k| a[row][k] * x[k]).sum();
        x[row] = (b[row] - tail) / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_pick_nearest_rank() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 10.0);
        assert_eq!(quantile(&xs, 0.95), 19.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn fit_recovers_an_exact_model() {
        let samples: Vec<[f64; 4]> = [
            (30.0, 0.0, 0.0),
            (100.0, 10.0, 1.0),
            (400.0, 100.0, 1.0),
            (90.0, 1.0, 16.0),
            (5000.0, 20.0, 2.0),
        ]
        .iter()
        .map(|&(w, h, s)| [w, h, s, 50.0 + 0.5 * w + 2.0 * h + 30.0 * s])
        .collect();
        let fit = fit_cost(&samples).expect("determined");
        assert!((fit.c - 50.0).abs() < 1e-6);
        assert!((fit.w - 0.5).abs() < 1e-6);
        assert!((fit.g - 2.0).abs() < 1e-6);
        assert!((fit.l - 30.0).abs() < 1e-6);
        assert!(fit.err_frac < 1e-9);
    }

    #[test]
    fn fit_refuses_collinear_samples() {
        // H always equals S: g and l cannot be told apart.
        let samples = [
            [10.0, 1.0, 1.0, 5.0],
            [50.0, 2.0, 2.0, 7.0],
            [20.0, 3.0, 3.0, 9.0],
            [70.0, 4.0, 4.0, 9.0],
        ];
        assert!(fit_cost(&samples).is_none());
    }
}
