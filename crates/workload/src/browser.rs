//! The emulated web browser.
//!
//! TPC-W drives the system with *emulated browsers*: each one issues a
//! request, waits for the response, thinks for an exponentially-distributed
//! time (7 s mean) and repeats, walking a session over the interaction
//! classes. [`EmulatedBrowser`] implements that closed loop for the
//! event-driven examples; the era-grain generator in [`crate::generator`]
//! uses the same think-time constant in fluid form.

use crate::mix::{InteractionClass, TpcwMix};
use crate::THINK_TIME_MEAN_S;
use acm_sim::rng::SimRng;
use acm_sim::time::Duration;

/// Lifecycle of one emulated browser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrowserPhase {
    /// Waiting out the think time before the next request.
    Thinking,
    /// A request is outstanding.
    WaitingForResponse,
}

/// One closed-loop emulated browser.
#[derive(Debug, Clone)]
pub struct EmulatedBrowser {
    id: u32,
    mix: TpcwMix,
    phase: BrowserPhase,
    requests_issued: u64,
    responses_seen: u64,
    rng: SimRng,
    last_class: Option<InteractionClass>,
}

impl EmulatedBrowser {
    /// Creates a browser in the thinking phase.
    pub fn new(id: u32, mix: TpcwMix, rng: SimRng) -> Self {
        EmulatedBrowser {
            id,
            mix,
            phase: BrowserPhase::Thinking,
            requests_issued: 0,
            responses_seen: 0,
            rng,
            last_class: None,
        }
    }

    /// Browser id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Current phase.
    pub fn phase(&self) -> BrowserPhase {
        self.phase
    }

    /// Total requests issued.
    pub fn requests_issued(&self) -> u64 {
        self.requests_issued
    }

    /// Total responses observed.
    pub fn responses_seen(&self) -> u64 {
        self.responses_seen
    }

    /// The most recent interaction class issued.
    pub fn last_class(&self) -> Option<InteractionClass> {
        self.last_class
    }

    /// Draws the next think time.
    pub fn think_time(&mut self) -> Duration {
        Duration::from_secs_f64(self.rng.exponential(THINK_TIME_MEAN_S))
    }

    /// Ends the thinking phase: issues the next request, returning its
    /// interaction class. Panics if a request is already outstanding.
    pub fn issue_request(&mut self) -> InteractionClass {
        assert_eq!(
            self.phase,
            BrowserPhase::Thinking,
            "browser {} already has a request outstanding",
            self.id
        );
        self.phase = BrowserPhase::WaitingForResponse;
        self.requests_issued += 1;
        let class = self.mix.sample(&mut self.rng);
        self.last_class = Some(class);
        class
    }

    /// Delivers the response for the outstanding request; the browser goes
    /// back to thinking. Panics if no request is outstanding.
    pub fn receive_response(&mut self) {
        assert_eq!(
            self.phase,
            BrowserPhase::WaitingForResponse,
            "browser {} has no request outstanding",
            self.id
        );
        self.phase = BrowserPhase::Thinking;
        self.responses_seen += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn browser(seed: u64) -> EmulatedBrowser {
        EmulatedBrowser::new(1, TpcwMix::Shopping, SimRng::new(seed))
    }

    #[test]
    fn request_response_cycle() {
        let mut b = browser(1);
        assert_eq!(b.phase(), BrowserPhase::Thinking);
        let class = b.issue_request();
        assert_eq!(b.phase(), BrowserPhase::WaitingForResponse);
        assert_eq!(b.last_class(), Some(class));
        b.receive_response();
        assert_eq!(b.phase(), BrowserPhase::Thinking);
        assert_eq!(b.requests_issued(), 1);
        assert_eq!(b.responses_seen(), 1);
    }

    #[test]
    #[should_panic(expected = "already has a request outstanding")]
    fn double_issue_panics() {
        let mut b = browser(2);
        b.issue_request();
        b.issue_request();
    }

    #[test]
    #[should_panic(expected = "no request outstanding")]
    fn response_without_request_panics() {
        let mut b = browser(3);
        b.receive_response();
    }

    #[test]
    fn think_times_average_seven_seconds() {
        let mut b = browser(4);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| b.think_time().as_secs_f64()).sum();
        let mean = total / n as f64;
        assert!((mean - THINK_TIME_MEAN_S).abs() < 0.2, "mean think {mean}");
    }

    #[test]
    fn interaction_classes_follow_the_mix() {
        let mut b = browser(5);
        let mut orders = 0;
        let n = 50_000;
        for _ in 0..n {
            let class = b.issue_request();
            if class.is_order_side() {
                orders += 1;
            }
            b.receive_response();
        }
        let frac = orders as f64 / n as f64;
        assert!((frac - 0.20).abs() < 0.02, "order fraction {frac}");
    }
}
