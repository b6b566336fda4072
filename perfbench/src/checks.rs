//! Result checks: every analytic output against a reference recorded
//! from a known-good build, and every simulator mean against the
//! analytic mean of the same model.

use std::collections::BTreeMap;

/// How closely a value must match its reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tol {
    /// State and rate counts.
    Exact,
    /// Means: `|got − want| ≤ tol·|want|`.
    Rel(f64),
    /// CDF points: `|got − want| ≤ tol`.
    Abs(f64),
}

/// The tolerance a value's name implies: counts (`.states`, `.rates`)
/// exactly, CDF points (`.cdf…`) to 1e-9 absolute, means to 1e-9
/// relative.
pub fn tol_for(name: &str) -> Tol {
    if name.ends_with(".states") || name.ends_with(".rates") {
        Tol::Exact
    } else if name.contains(".cdf") {
        Tol::Abs(1e-9)
    } else {
        Tol::Rel(1e-9)
    }
}

/// Checks `got` against `want` under `tol`.
pub fn within(got: f64, want: f64, tol: Tol) -> Result<(), String> {
    let ok = match tol {
        Tol::Exact => got == want,
        Tol::Rel(t) => (got - want).abs() <= t * want.abs(),
        Tol::Abs(t) => (got - want).abs() <= t,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{got:e} vs reference {want:e} ({tol:?})"))
    }
}

/// A workload's reference values, by name.
#[derive(Debug, Clone, Default)]
pub struct Refs(pub BTreeMap<String, f64>);

impl Refs {
    pub fn from_table(table: &[(&str, f64)]) -> Self {
        Refs(table.iter().map(|&(k, v)| (k.to_string(), v)).collect())
    }

    /// Checks one named output. A name with no reference fails: an
    /// output the benchmark does not know is not a checked output.
    pub fn check(&self, name: &str, got: f64) -> Result<(), String> {
        match self.0.get(name) {
            Some(&want) => within(got, want, tol_for(name)),
            None => Err(format!("no reference value for `{name}` (got {got:e})")),
        }
    }
}

/// A simulator mean agrees with the analytic mean of the same model
/// when it lies within 3 × its 90 % CI half-width. A bare 90 % CI
/// would reject about one seed in ten.
pub fn sim_agrees(sim_mean: f64, ci90: f64, analytic: f64) -> Result<(), String> {
    if ci90.is_finite() && (sim_mean - analytic).abs() <= 3.0 * ci90 {
        Ok(())
    } else {
        Err(format!(
            "simulated mean {sim_mean} ± {ci90} (90 % CI) is more than 3 CI from analytic {analytic}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_follows_the_name() {
        assert_eq!(tol_for("order2.states"), Tol::Exact);
        assert_eq!(tol_for("none.rates"), Tol::Exact);
        assert_eq!(tol_for("none.cdf3"), Tol::Abs(1e-9));
        assert_eq!(tol_for("order2.mean_ms"), Tol::Rel(1e-9));
    }

    #[test]
    fn perturbed_reference_mean_fails_the_op() {
        let want = 1.000045364058;
        let refs = Refs::from_table(&[("order2.mean_ms", want)]);
        assert!(refs.check("order2.mean_ms", want).is_ok());
        // Inside 1e-9 relative still passes ...
        assert!(refs.check("order2.mean_ms", want * (1.0 + 5e-10)).is_ok());
        // ... a reference perturbed by 2e-9 relative does not.
        let perturbed = Refs::from_table(&[("order2.mean_ms", want * (1.0 + 2e-9))]);
        assert!(perturbed.check("order2.mean_ms", want).is_err());
        // Unknown outputs fail too.
        assert!(refs.check("order3.mean_ms", want).is_err());
    }

    #[test]
    fn counts_are_exact_and_cdf_points_absolute() {
        let refs = Refs::from_table(&[("a.states", 534_429.0), ("a.cdf0", 0.5)]);
        assert!(refs.check("a.states", 534_429.0).is_ok());
        assert!(refs.check("a.states", 534_430.0).is_err());
        assert!(refs.check("a.cdf0", 0.5 + 5e-10).is_ok());
        assert!(refs.check("a.cdf0", 0.5 + 2e-9).is_err());
    }

    #[test]
    fn sim_check_uses_three_ci90() {
        assert!(sim_agrees(1.02, 0.01, 1.0).is_ok());
        assert!(sim_agrees(1.04, 0.01, 1.0).is_err());
        assert!(sim_agrees(1.0, f64::NAN, 1.0).is_err());
    }
}
