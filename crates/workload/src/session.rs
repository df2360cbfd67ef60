//! TPC-W session state machine.
//!
//! TPC-W clients do not draw interactions i.i.d. — they walk sessions
//! (home → search → product → cart → buy …) whose transition structure the
//! spec fixes per mix. We model a first-order Markov chain over the five
//! interaction classes of [`crate::mix`], with per-mix transition rows
//! calibrated so the chain's stationary distribution matches the mix's
//! class weights, plus a geometric session length. The event-driven
//! examples use this; the era-grain generator only needs the stationary
//! rates, which is why [`TpcwMix::class_weights`] and the chain agree.

use crate::mix::{InteractionClass, TpcwMix};
use acm_sim::rng::SimRng;

/// Mean number of interactions per session (geometric continuation).
pub const MEAN_SESSION_LENGTH: f64 = 20.0;

/// A user session walking the interaction chain.
#[derive(Debug, Clone)]
pub struct Session {
    mix: TpcwMix,
    state: InteractionClass,
    interactions: u32,
    finished: bool,
    continue_prob: f64,
}

impl Session {
    /// Starts a session; the first interaction is always a `Browse`
    /// (home page), as in TPC-W.
    pub fn start(mix: TpcwMix) -> Self {
        Session {
            mix,
            state: InteractionClass::Browse,
            interactions: 1,
            finished: false,
            continue_prob: 1.0 - 1.0 / MEAN_SESSION_LENGTH,
        }
    }

    /// The interaction the user is currently performing.
    pub fn current(&self) -> InteractionClass {
        self.state
    }

    /// Number of interactions performed so far.
    pub fn interactions(&self) -> u32 {
        self.interactions
    }

    /// Whether the session has ended.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Advances to the next interaction (or ends the session). Returns the
    /// new interaction, or `None` when the user leaves.
    pub fn advance(&mut self, rng: &mut SimRng) -> Option<InteractionClass> {
        if self.finished {
            return None;
        }
        if !rng.bernoulli(self.continue_prob) {
            self.finished = true;
            return None;
        }
        let row = transition_row(self.mix, self.state);
        let idx = rng.weighted_index(&row);
        self.state = InteractionClass::ALL[idx];
        self.interactions += 1;
        Some(self.state)
    }
}

/// Transition probabilities out of `from` for the given mix, aligned with
/// [`InteractionClass::ALL`].
///
/// Construction: a blend of the mix's stationary weights (which makes the
/// chain's long-run class frequencies match [`TpcwMix::class_weights`])
/// with sticky/structural mass: searches repeat, carts lead to buys, buys
/// return to browsing.
pub fn transition_row(mix: TpcwMix, from: InteractionClass) -> [f64; 5] {
    let w = mix.class_weights();
    // Structural adjacency of the store: rows are *extra* affinity.
    let affinity: [f64; 5] = match from {
        // browse -> browse/search
        InteractionClass::Browse => [0.30, 0.15, 0.0, 0.0, 0.0],
        // search -> search/browse (paging through results)
        InteractionClass::Search => [0.15, 0.30, 0.05, 0.0, 0.0],
        // cart -> buy or keep shopping
        InteractionClass::Cart => [0.10, 0.05, 0.10, 0.25, 0.0],
        // buy -> order status / back to browsing
        InteractionClass::Buy => [0.30, 0.0, 0.0, 0.0, 0.20],
        // order status -> browse
        InteractionClass::OrderStatus => [0.35, 0.05, 0.0, 0.0, 0.10],
    };
    let affinity_mass: f64 = affinity.iter().sum();
    let base_scale = 1.0 - affinity_mass;
    let mut row = [0.0; 5];
    for i in 0..5 {
        row[i] = w[i] * base_scale + affinity[i];
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_distributions() {
        for mix in [TpcwMix::Browsing, TpcwMix::Shopping, TpcwMix::Ordering] {
            for from in InteractionClass::ALL {
                let row = transition_row(mix, from);
                let s: f64 = row.iter().sum();
                assert!((s - 1.0).abs() < 1e-12, "{mix:?}/{from:?} sums {s}");
                assert!(row.iter().all(|p| *p >= 0.0));
            }
        }
    }

    #[test]
    fn sessions_start_at_home_and_eventually_end() {
        let mut rng = SimRng::new(1);
        let mut lengths = Vec::new();
        for _ in 0..2_000 {
            let mut s = Session::start(TpcwMix::Shopping);
            assert_eq!(s.current(), InteractionClass::Browse);
            while s.advance(&mut rng).is_some() {
                assert!(s.interactions() < 10_000, "session never ends");
            }
            assert!(s.is_finished());
            lengths.push(s.interactions() as f64);
        }
        let mean = lengths.iter().sum::<f64>() / lengths.len() as f64;
        assert!(
            (mean - MEAN_SESSION_LENGTH).abs() < 1.5,
            "mean session length {mean}"
        );
    }

    #[test]
    fn advancing_a_finished_session_stays_none() {
        let mut rng = SimRng::new(2);
        let mut s = Session::start(TpcwMix::Browsing);
        while s.advance(&mut rng).is_some() {}
        assert_eq!(s.advance(&mut rng), None);
        assert!(s.is_finished());
    }

    #[test]
    fn long_run_frequencies_approximate_the_mix() {
        // The chain's empirical class distribution should be close to the
        // mix weights (the affinity blend perturbs it mildly).
        let mix = TpcwMix::Shopping;
        let mut rng = SimRng::new(3);
        let mut counts = [0usize; 5];
        let mut total = 0usize;
        for _ in 0..3_000 {
            let mut s = Session::start(mix);
            loop {
                let idx = InteractionClass::ALL
                    .iter()
                    .position(|c| *c == s.current())
                    .unwrap();
                counts[idx] += 1;
                total += 1;
                if s.advance(&mut rng).is_none() {
                    break;
                }
            }
        }
        let weights = mix.class_weights();
        for (i, c) in counts.iter().enumerate() {
            let freq = *c as f64 / total as f64;
            assert!(
                (freq - weights[i]).abs() < 0.12,
                "class {i}: freq {freq} vs weight {}",
                weights[i]
            );
        }
        // Order-side share should sit in the shopping-mix ballpark.
        let order_freq = (counts[2] + counts[3] + counts[4]) as f64 / total as f64;
        assert!(
            (0.1..0.35).contains(&order_freq),
            "order share {order_freq}"
        );
    }

    #[test]
    fn cart_leads_to_buy_more_often_than_browse_does() {
        let buy_idx = 3;
        let from_cart = transition_row(TpcwMix::Shopping, InteractionClass::Cart)[buy_idx];
        let from_browse = transition_row(TpcwMix::Shopping, InteractionClass::Browse)[buy_idx];
        assert!(
            from_cart > 3.0 * from_browse,
            "{from_cart} vs {from_browse}"
        );
    }
}
