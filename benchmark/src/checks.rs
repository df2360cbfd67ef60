//! Correctness checks on each workload's simulated outputs. Every check
//! is a pure function of data the public API hands back, so the tests
//! below can feed each one a deliberately wrong input.

use acm_core::policy::PolicyKind;
use acm_obs::{EventRecord, Value};
use acm_router::PlanStep;

/// Tolerance on a sum of flow fractions.
const SUM_EPS: f64 = 1e-6;
/// Largest fraction a quarantined region may carry.
const ZERO_EPS: f64 = 1e-9;

/// The paper's per-run claims (fig3/fig4 scorecards): client response
/// below 1 s (C4); Policy 1 leaves RMTTFs apart (C1); Policies 2 and 3
/// converge (C2, C3). `spread` is the tail-window RMTTF max/min ratio.
pub fn paper_claim(policy: PolicyKind, spread: f64, tail_response_s: f64) -> Result<(), String> {
    if tail_response_s.is_nan() || tail_response_s >= 1.0 {
        return Err(format!("C4: tail response {tail_response_s:.3}s >= 1s"));
    }
    let holds = match policy {
        PolicyKind::SensibleRouting => spread > 1.4,
        PolicyKind::AvailableResources => spread < 1.25,
        PolicyKind::Exploration => spread < 1.4,
        PolicyKind::CostAwareResources => {
            return Err("the cost-aware extension has no paper claim".into())
        }
    };
    if holds {
        Ok(())
    } else {
        Err(format!(
            "{policy}: RMTTF spread {spread:.3} contradicts its claim"
        ))
    }
}

/// One control-plane era as the `mega` check sees it.
#[derive(Debug, Clone, Copy)]
pub struct EraFlow<'a> {
    /// Era index.
    pub era: usize,
    /// Planned fractions in force after the era (telemetry).
    pub fractions: &'a [f64],
    /// Shares the request router actually routes by after the era.
    pub router_shares: &'a [f64],
    /// Regions quarantined (or on probation) after the era.
    pub excluded: &'a [bool],
    /// Whether the era installed a fresh plan (frozen eras keep the old
    /// fractions and mask the router only).
    pub installed: bool,
}

/// Flow conservation and zero flow to quarantined regions.
pub fn era_flow(e: &EraFlow<'_>) -> Result<(), String> {
    let sum: f64 = e.fractions.iter().sum();
    if (sum - 1.0).abs() > SUM_EPS {
        return Err(format!("era {}: fractions sum to {sum}", e.era));
    }
    let routed: f64 = e.router_shares.iter().sum();
    if (routed - 1.0).abs() > SUM_EPS {
        return Err(format!("era {}: router shares sum to {routed}", e.era));
    }
    for (j, &out) in e.excluded.iter().enumerate() {
        if !out {
            continue;
        }
        if e.router_shares[j] > ZERO_EPS {
            return Err(format!(
                "era {}: quarantined region {j} is routed share {}",
                e.era, e.router_shares[j]
            ));
        }
        if e.installed && e.fractions[j] > ZERO_EPS {
            return Err(format!(
                "era {}: installed plan gives quarantined region {j} fraction {}",
                e.era, e.fractions[j]
            ));
        }
    }
    Ok(())
}

/// Per-era quarantine masks and plan-install flags rebuilt from the
/// decision log (`region.quarantine` / `region.probation` exclude a
/// region from that era on, `region.readmit` returns it).
pub fn health_masks(
    events: &[EventRecord],
    names: &[String],
    eras: usize,
) -> (Vec<Vec<bool>>, Vec<bool>) {
    let field = |ev: &EventRecord, key: &str| -> Option<Value> {
        ev.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    };
    let era_of = |ev: &EventRecord| match field(ev, "era") {
        Some(Value::U64(e)) => Some(e as usize),
        Some(Value::I64(e)) => usize::try_from(e).ok(),
        _ => None,
    };
    let mut installed = vec![false; eras];
    let mut changes: Vec<Vec<(usize, bool)>> = vec![Vec::new(); eras];
    for ev in events {
        let Some(e) = era_of(ev).filter(|&e| e < eras) else {
            continue;
        };
        let out = match ev.kind {
            "plan.install" => {
                installed[e] = true;
                continue;
            }
            "region.quarantine" | "region.probation" => true,
            "region.readmit" => false,
            _ => continue,
        };
        if let Some(Value::Str(name)) = field(ev, "region") {
            if let Some(j) = names.iter().position(|n| *n == name) {
                changes[e].push((j, out));
            }
        }
    }
    let mut mask = vec![false; names.len()];
    let masks = changes
        .into_iter()
        .map(|era_changes| {
            for (j, out) in era_changes {
                mask[j] = out;
            }
            mask.clone()
        })
        .collect();
    (masks, installed)
}

/// Requests one plan step of the routed plane sent to each region.
///
/// Weighted power-of-two-choices draws two candidates from the planned
/// fractions `f` and keeps one, so a region's realized share lies in
/// `[f², 1 - (1 - f)²]` whatever the latency scorer prefers; the check
/// allows six binomial standard errors beyond that envelope. A region
/// the step quarantines must receive nothing at all.
pub fn routed_step(step_no: usize, step: &PlanStep, routed: &[u64]) -> Result<(), String> {
    let n: u64 = routed.iter().sum();
    if n == 0 {
        return Err(format!("step {step_no}: nothing was routed"));
    }
    let weight = |j: usize| {
        if step.live[j] {
            step.fractions[j].max(0.0)
        } else {
            0.0
        }
    };
    let total: f64 = (0..routed.len()).map(weight).sum();
    for (j, &count) in routed.iter().enumerate() {
        if !step.live[j] && count > 0 {
            return Err(format!(
                "step {step_no}: {count} requests routed to quarantined region {j}"
            ));
        }
        let f = weight(j) / total;
        let (lo, hi) = (f * f, 1.0 - (1.0 - f) * (1.0 - f));
        let got = count as f64 / n as f64;
        let se = |p: f64| (p * (1.0 - p) / n as f64).sqrt();
        if got < lo - 6.0 * se(lo) || got > hi + 6.0 * se(hi) {
            return Err(format!(
                "step {step_no}: region {j} realized {got:.5} outside [{lo:.5}, {hi:.5}] (planned {f:.5})"
            ));
        }
    }
    weight_order(step_no, &(0..routed.len()).map(weight).collect::<Vec<_>>(), routed)
}

/// Live regions grouped by planned weight: a heavier class must get a
/// larger mean realized share than every lighter class. With many
/// regions the per-region envelope is wide enough to admit uniform
/// routing; this order is not.
fn weight_order(step_no: usize, weights: &[f64], routed: &[u64]) -> Result<(), String> {
    let mut classes: Vec<(f64, u64, u64)> = Vec::new();
    for (&w, &count) in weights.iter().zip(routed) {
        if w <= 0.0 {
            continue;
        }
        match classes.iter_mut().find(|c| c.0 == w) {
            Some(c) => {
                c.1 += count;
                c.2 += 1;
            }
            None => classes.push((w, count, 1)),
        }
    }
    classes.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mean = |c: &(f64, u64, u64)| c.1 as f64 / c.2 as f64;
    for pair in classes.windows(2) {
        let (light, heavy) = (&pair[0], &pair[1]);
        if mean(heavy) <= mean(light) {
            return Err(format!(
                "step {step_no}: weight-{} regions got {:.1} requests each, weight-{} regions {:.1}",
                heavy.0,
                mean(heavy),
                light.0,
                mean(light)
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_claims_reject_wrong_outcomes() {
        assert!(paper_claim(PolicyKind::SensibleRouting, 2.5, 0.05).is_ok());
        assert!(paper_claim(PolicyKind::SensibleRouting, 1.1, 0.05).is_err());
        assert!(paper_claim(PolicyKind::AvailableResources, 1.01, 0.05).is_ok());
        assert!(paper_claim(PolicyKind::AvailableResources, 1.3, 0.05).is_err());
        assert!(paper_claim(PolicyKind::Exploration, 1.5, 0.05).is_err());
        assert!(paper_claim(PolicyKind::Exploration, 1.05, 1.2).is_err());
        assert!(paper_claim(PolicyKind::Exploration, 1.05, f64::NAN).is_err());
    }

    fn flow<'a>(f: &'a [f64], r: &'a [f64], x: &'a [bool], installed: bool) -> EraFlow<'a> {
        EraFlow {
            era: 4,
            fractions: f,
            router_shares: r,
            excluded: x,
            installed,
        }
    }

    #[test]
    fn era_flow_rejects_leaks_and_lost_flow() {
        let live = [false, false, false];
        let ok = [0.5, 0.3, 0.2];
        assert!(era_flow(&flow(&ok, &ok, &live, true)).is_ok());
        // A telemetry row whose fractions sum to 0.9.
        let short = [0.5, 0.3, 0.1];
        assert!(era_flow(&flow(&short, &ok, &live, true)).is_err());
        assert!(era_flow(&flow(&ok, &short, &live, true)).is_err());
        // Region 2 quarantined: the router must mask it in every era,
        // the installed plan too; a frozen plan may keep its fraction.
        let out = [false, false, true];
        let masked = [0.6, 0.4, 0.0];
        assert!(era_flow(&flow(&ok, &masked, &out, false)).is_ok());
        assert!(era_flow(&flow(&ok, &masked, &out, true)).is_err());
        assert!(era_flow(&flow(&masked, &ok, &out, true)).is_err());
        assert!(era_flow(&flow(&masked, &masked, &out, true)).is_ok());
    }

    fn ev(kind: &'static str, era: u64, region: &str) -> EventRecord {
        EventRecord {
            seq: 0,
            t_us: 0,
            kind,
            fields: vec![
                ("region", Value::from(region.to_string())),
                ("era", Value::from(era)),
            ],
        }
    }

    #[test]
    fn health_masks_follow_quarantine_and_readmit() {
        let names = vec!["a".to_string(), "b".to_string()];
        let events = vec![
            ev("region.quarantine", 1, "b"),
            ev("region.readmit", 3, "b"),
            ev("plan.install", 2, ""),
            ev("region.quarantine", 9, "a"),
        ];
        let (masks, installed) = health_masks(&events, &names, 5);
        let b: Vec<bool> = masks.iter().map(|m| m[1]).collect();
        assert_eq!(b, vec![false, true, true, false, false]);
        assert!(masks.iter().all(|m| !m[0]), "era 9 is past the horizon");
        assert_eq!(installed, vec![false, false, true, false, false]);
    }

    fn step(live: Vec<bool>) -> PlanStep {
        PlanStep {
            fractions: vec![0.5, 0.3, 0.2],
            live,
        }
    }

    #[test]
    fn routed_step_rejects_flow_to_a_quarantined_region() {
        let s = step(vec![true, true, false]);
        assert!(routed_step(1, &s, &[62_000, 38_000, 0]).is_ok());
        // A digest that routes to the quarantined region.
        let err = routed_step(1, &s, &[62_000, 37_999, 1]).expect_err("leak");
        assert!(err.contains("quarantined region 2"), "{err}");
    }

    #[test]
    fn routed_step_rejects_shares_outside_the_two_choice_envelope() {
        let s = step(vec![true; 3]);
        // Planned 0.5 ⇒ realized share must lie in [0.25, 0.75].
        assert!(routed_step(0, &s, &[70_000, 20_000, 10_000]).is_ok());
        assert!(routed_step(0, &s, &[80_000, 15_000, 5_000]).is_err());
        assert!(routed_step(0, &s, &[20_000, 45_000, 35_000]).is_err());
        assert!(routed_step(0, &s, &[0, 0, 0]).is_err());
    }

    /// The routed workload's skew, 3:2:1 over 64 regions, in either order.
    fn skew_step(reversed: bool) -> PlanStep {
        let mut f: Vec<f64> = (0..64).map(|i| (3 - i % 3) as f64).collect();
        if reversed {
            f.reverse();
        }
        PlanStep::all_live(f)
    }

    #[test]
    fn routed_step_rejects_a_router_that_ignores_the_plan() {
        let s = skew_step(false);
        // Uniform routing fits every region's envelope but not the order.
        let uniform = vec![10_000u64; 64];
        let err = routed_step(0, &s, &uniform).expect_err("uniform routing");
        assert!(err.contains("weight-"), "{err}");
        // Shares that follow the planned weights pass, and the same
        // counts fail once the step reverses the skew.
        let follows: Vec<u64> = s.fractions.iter().map(|w| 4_000 * *w as u64).collect();
        assert!(routed_step(0, &s, &follows).is_ok());
        assert!(routed_step(2, &skew_step(true), &follows).is_err());
    }
}
