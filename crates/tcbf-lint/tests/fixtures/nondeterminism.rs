//! Fixture: determinism rules TCBF-D002 and TCBF-D004.  Read by
//! tests/rules.rs; never compiled.

fn d002_sites(samples: &[f32], weights: &[f64]) -> (f32, f64, f32) {
    let energy = samples.iter().map(|s| s * s).sum::<f32>();
    let mass: f64 = weights.iter().fold(0.0f64, |acc, w| acc + w);
    // A min/max fold is order-insensitive and must NOT fire.
    let peak = samples.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    (energy, mass, peak)
}

fn d004_site() -> std::time::Instant {
    std::time::Instant::now()
}

#[cfg(test)]
mod tests {
    #[test]
    fn timing_in_tests_is_fine() {
        let _ = std::time::Instant::now();
    }
}
