//! Windowed-sinc interpolation of a sampled waveform at any real position.
//!
//! Propagation delays between APs and clients are generally not integer
//! multiples of the sample period (at 10 MHz one sample is 100 ns ≈ 30 m of
//! propagation; conference-room distances are a fraction of that), and a
//! transmitter's sample clock runs slightly off the receiver's. The sample
//! medium therefore reads each transmitted waveform at real-valued
//! positions — propagation delay plus sample-clock offset — and this module
//! interpolates it there.
//!
//! The paper notes (§5.2, footnote 3) that delay differences between APs show
//! up as per-subcarrier phase slopes that are *captured by channel
//! measurement and inverted by beamforming* — reproducing that effect
//! faithfully requires actually delaying the waveforms, which this module does.

use crate::complex::Complex64;
use std::f64::consts::PI;
use std::sync::OnceLock;

/// Number of taps on each side of the centre tap in the interpolation
/// kernel. 24 keeps the in-band interpolation error below ≈ −50 dB even at
/// OFDM's edge subcarriers (81% of Nyquist) — necessary because kernel
/// truncation error appears as acausal ringing in the effective channel
/// impulse response, which leaks outside the OFDM cyclic prefix and sets an
/// irreducible inter-symbol-interference floor for every simulation built
/// on this resampler.
const HALF_TAPS: usize = 24;

/// Kernel length: the centre tap plus `HALF_TAPS` on each side.
const TAPS: usize = 2 * HALF_TAPS + 1;

/// The Hann window reaches zero at `|t| = WINDOW_HALF`, one sample past the
/// outermost tap.
const WINDOW_HALF: f64 = HALF_TAPS as f64 + 1.0;

/// Per-tap constants for `m = j − HALF_TAPS`: the window phase
/// `(cos(πm/W), sin(πm/W))`, `W = WINDOW_HALF`, and `m` itself, because
/// loading it keeps the weight loop vectorised where converting `j` per tap
/// made the kernel ~40% slower.
struct KernelTable {
    m: [f64; TAPS],
    cos_m: [f64; TAPS],
    sin_m: [f64; TAPS],
}

fn kernel_table() -> &'static KernelTable {
    static TABLE: OnceLock<KernelTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let m: [f64; TAPS] = std::array::from_fn(|j| j as f64 - HALF_TAPS as f64);
        KernelTable {
            m,
            cos_m: m.map(|m| (PI * m / WINDOW_HALF).cos()),
            sin_m: m.map(|m| (PI * m / WINDOW_HALF).sin()),
        }
    })
}

/// The weights `h[j] = sinc(t)·hann(t)` at `t = (j − HALF_TAPS) − frac`,
/// for `frac` in `[0, 1]`, from three transcendentals instead of one `sin`
/// and one `cos` per tap (DESIGN.md §3.1):
///
/// * `sin(π(m − f)) = −(−1)^m·sin(πf)`, and `sin(πf) = sin(π(1 − f))`: the
///   smaller of the two arguments keeps the sine's relative accuracy as
///   `f → 1`, where the `m = 1` weight divides it by the tiny exact `1 − f`.
/// * `cos(π(m − f)/W) = cos(πm/W)·cos(πf/W) + sin(πm/W)·sin(πf/W)`, with
///   the per-tap factors from [`kernel_table`].
#[inline]
fn kernel(frac: f64) -> [f64; TAPS] {
    let s = (PI * frac.min(1.0 - frac)).sin();
    let (sw, cw) = (PI * frac / WINDOW_HALF).sin_cos();
    let tab = kernel_table();
    let mut h = [0.0; TAPS];
    for (j, hj) in h.iter_mut().enumerate() {
        let t = tab.m[j] - frac;
        // −(−1)^m·sin(πf), and m = j − HALF_TAPS has j's parity (HALF_TAPS
        // is even).
        let sinc = if t.abs() < 1e-12 {
            1.0
        } else if j % 2 == 0 {
            -s / (PI * t)
        } else {
            s / (PI * t)
        };
        let hann = 0.5 * (1.0 + (tab.cos_m[j] * cw + tab.sin_m[j] * sw));
        *hj = sinc * hann;
    }
    h
}

/// Windowed-sinc interpolation of `input` at (possibly fractional) position
/// `pos`; zero outside the signal's support.
///
/// The kernel is a Hann-windowed sinc over `2·HALF_TAPS + 1 = 49` taps: its
/// interpolation error stays below ≈ −50 dB for signals bandlimited to ~81%
/// of Nyquist, which covers the OFDM occupied band (52/64 of Nyquist).
/// Samples outside `input` count as zero, so a kernel that only partly
/// overlaps the signal sums the overlapping taps.
pub fn interpolate_at(input: &[Complex64], pos: f64) -> Complex64 {
    let base = pos.floor();
    // Some tap lands on a sample iff −HALF_TAPS ≤ base < len + HALF_TAPS;
    // NaN and ±∞ fail the test too.
    if !(base >= -(HALF_TAPS as f64) && base < (input.len() + HALF_TAPS) as f64) {
        return Complex64::ZERO;
    }
    let h = kernel(pos - base);
    // The taps cover input[end − TAPS..end] (end ≥ 1 by the test above);
    // those that land on a sample are input[lo..hi], under h[lo + TAPS − end..].
    let end = (base + (HALF_TAPS + 1) as f64) as usize;
    let (lo, hi) = (end.saturating_sub(TAPS), end.min(input.len()));
    let mut acc = Complex64::ZERO;
    for (&x, &w) in input[lo..hi].iter().zip(&h[lo + TAPS - end..]) {
        acc += x.scale(w);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(f: f64, n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::cis(2.0 * PI * f * i as f64))
            .collect()
    }

    #[test]
    fn integer_delay_is_exact_shift() {
        let x: Vec<Complex64> = (0..10).map(|i| Complex64::real(i as f64)).collect();
        for n in 0..3 {
            assert_eq!(interpolate_at(&x, n as f64 - 3.0), Complex64::ZERO);
        }
        for (i, xi) in x.iter().enumerate() {
            assert_eq!(interpolate_at(&x, (i + 3) as f64 - 3.0), *xi);
        }
    }

    #[test]
    fn zero_delay_is_identity() {
        let x: Vec<Complex64> = (0..8)
            .map(|i| Complex64::new(i as f64, -(i as f64)))
            .collect();
        for (i, xi) in x.iter().enumerate() {
            assert_eq!(interpolate_at(&x, i as f64), *xi);
        }
    }

    #[test]
    fn half_sample_delay_of_bandlimited_tone() {
        // Delay a bandlimited complex exponential by 0.5 samples and compare
        // against the analytically delayed tone. Frequency well inside the
        // kernel's accurate band.
        let n = 256;
        let f = 0.11; // cycles per sample
        let x = tone(f, n);
        let d = 0.5;
        // Compare in the steady-state middle region (skip kernel edges).
        let mut max_err: f64 = 0.0;
        for i in 32..n - 32 {
            let y = interpolate_at(&x, i as f64 - d);
            let expected = Complex64::cis(2.0 * PI * f * (i as f64 - d));
            max_err = max_err.max((y - expected).abs());
        }
        assert!(max_err < 1e-3, "max interpolation error {max_err}");
    }

    #[test]
    fn arbitrary_fraction_phase_accuracy() {
        // The *phase* accuracy is what matters for JMB: per-subcarrier phase
        // slope from delay must be faithful.
        let n = 512;
        let f = 0.07;
        let x = tone(f, n);
        for &d in &[0.123, 0.5, 0.77, 1.3, 2.9] {
            let i = n / 2;
            let expected_phase = 2.0 * PI * f * (i as f64 - d);
            let got_phase = interpolate_at(&x, i as f64 - d).arg();
            let err = crate::complex::wrap_phase(got_phase - expected_phase).abs();
            assert!(err < 1e-3, "phase error {err} at delay {d}");
        }
    }

    #[test]
    fn energy_approximately_preserved() {
        // Delaying by 1.37 samples over the whole support, tails included,
        // keeps the energy of a bandlimited tone.
        let n = 256;
        let x: Vec<Complex64> = tone(0.13, n).into_iter().map(|v| v * 0.9).collect();
        let ein: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let d = 1.37;
        let eout: f64 = (0..n + 2 * HALF_TAPS)
            .map(|i| interpolate_at(&x, i as f64 - HALF_TAPS as f64 - d).norm_sqr())
            .sum();
        assert!(
            (eout / ein - 1.0).abs() < 0.01,
            "energy ratio {}",
            eout / ein
        );
    }

    #[test]
    fn resample_unity_ratio_is_identity() {
        let x = tone(0.09, 64);
        for (i, xi) in x.iter().enumerate() {
            assert_eq!(interpolate_at(&x, i as f64), *xi);
        }
    }

    #[test]
    fn resample_matches_analytic_tone() {
        // Sampling-frequency offset: a 20 ppm fast transmitter clock, so
        // output sample i reads input position i·ratio.
        let n = 4000;
        let f = 0.05;
        let x = tone(f, n + 100);
        let ratio = 1.0 + 2e-5;
        for &i in &[100usize, 1000, 3900] {
            let y = interpolate_at(&x, i as f64 * ratio);
            let expected = Complex64::cis(2.0 * PI * f * i as f64 * ratio);
            assert!((y - expected).abs() < 2e-3, "at {i}: {y} vs {expected}");
        }
    }

    #[test]
    fn interpolate_outside_support_is_zero() {
        let x = vec![Complex64::ONE; 8];
        assert_eq!(interpolate_at(&x, -60.0), Complex64::ZERO);
        assert_eq!(interpolate_at(&x, -24.5), Complex64::ZERO);
        assert_eq!(interpolate_at(&x, 32.0), Complex64::ZERO);
        assert_eq!(interpolate_at(&x, 100.0), Complex64::ZERO);
        assert_eq!(interpolate_at(&x, f64::NAN), Complex64::ZERO);
        assert_eq!(interpolate_at(&x, f64::INFINITY), Complex64::ZERO);
        assert_eq!(interpolate_at(&x, f64::NEG_INFINITY), Complex64::ZERO);
        assert_eq!(interpolate_at(&x, 1e300), Complex64::ZERO);
        // The outermost taps still reach the signal just inside the bounds.
        assert_ne!(interpolate_at(&x, -23.5), Complex64::ZERO);
        assert_ne!(interpolate_at(&x, 31.5), Complex64::ZERO);
    }
}
