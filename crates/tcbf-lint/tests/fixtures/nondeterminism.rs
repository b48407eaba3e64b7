//! Fixture: determinism rule TCBF-D002.  Read by tests/rules.rs; never
//! compiled.

fn d002_sites(samples: &[f32], weights: &[f64]) -> (f32, f64, f32) {
    let energy = samples.iter().map(|s| s * s).sum::<f32>();
    let mass: f64 = weights.iter().fold(0.0f64, |acc, w| acc + w);
    // A min/max fold is order-insensitive and must NOT fire.
    let peak = samples.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    (energy, mass, peak)
}

#[cfg(test)]
mod tests {
    #[test]
    fn reductions_in_tests_are_fine() {
        let _ = [1.0f32, 2.0].iter().sum::<f32>();
    }
}
