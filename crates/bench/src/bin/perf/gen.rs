//! Workload generation. Everything here is a pure function of `--seed`: the
//! seed reaches the system only as the prompts built here.

use lserve_core::{RequestSpec, SloClass};

use crate::layers;

/// SplitMix64, the repo's own generator family, kept local so prompt and
/// schedule generation pin no library call.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: usize) -> usize {
        ((u128::from(self.next_u64()) * bound as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }

    /// `n` token ids below the vocabulary size.
    pub fn tokens(&mut self, n: usize) -> Vec<u32> {
        (0..n).map(|_| self.below(layers::VOCAB) as u32).collect()
    }
}

/// An independent stream for `(seed, workload)`.
fn substream(seed: u64, workload: Workload) -> Rng {
    let mut r = Rng::new(seed ^ ((workload as u64 + 1) << 56));
    r.next_u64();
    r
}

/// The four serving workloads. Names are the contract with `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Workload {
    #[default]
    LongPrefill,
    LongDecode,
    OvercommitSwap,
    ServeMixOpen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LongPrefill,
        Workload::LongDecode,
        Workload::OvercommitSwap,
        Workload::ServeMixOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LongPrefill => "long_prefill",
            Workload::LongDecode => "long_decode",
            Workload::OvercommitSwap => "overcommit_swap",
            Workload::ServeMixOpen => "serve_mix_open",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How many times a run replays the scene: a constant, because each
    /// call's time is taken as the fastest of its executions and a minimum
    /// shifts with the number it is taken over. Sized so the passes fill
    /// about 19 of the 30 seconds on this box (3.6, 6, 6.3 and 4.6 s a pass):
    /// with room for the output checks, and for the box's slow level without
    /// `--seconds` cutting a pass and so changing the estimator.
    pub fn passes(self) -> usize {
        match self {
            Workload::LongPrefill => 5,
            Workload::LongDecode | Workload::OvercommitSwap => 3,
            Workload::ServeMixOpen => 4,
        }
    }
}

/// Full size, or the `--smoke` geometry the unit tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    /// Prompt and output lengths are divided by this.
    pub fn div(self) -> usize {
        match self {
            Scale::Full => 1,
            Scale::Smoke => 32,
        }
    }

    fn pick(self, full: usize, smoke: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// How requests reach the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Each request is sent when the arrival clock reaches its `due_work`,
    /// whatever the system is doing.
    Open,
    /// `clients` callers, each sending its next request when the previous
    /// one ends; `due_work` is ignored.
    Closed { clients: usize },
}

#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// When the request is due, on the arrival clock: the scheduler's work
    /// clock (one tick per token through the forward pass), with idle
    /// stretches skipped. See [`MEAN_GAP_WORK`].
    pub due_work: u64,
    pub spec: RequestSpec,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Scene {
    pub arrival: Arrival,
    pub requests: Vec<Req>,
}

/// Mean gap between `serve_mix_open` arrivals, in work tokens: 3.5 requests
/// per second — 0.6 x the seed commit's saturation throughput on the mix —
/// at the seed commit's 283 us per work token (see the README).
///
/// This makes `serve_mix_open` the replay of an open-loop schedule at constant
/// utilisation, not an open loop: arrivals are due on the scheduler's work
/// clock (forward-pass tokens; the driver checks that no modeled transfer
/// cost was charged to it), so a system that gets faster per token sees its
/// arrivals get faster with it, and a speed-up shows as shorter steps, never
/// as a queue that drains. A wall-clock schedule was measured first: at 60 %
/// utilisation the queue amplifies this box's two speed levels (28 % apart,
/// alternating every few seconds) into 15-50 % disagreement between identical
/// runs on every percentile, past any bound the benchmark may declare. On the
/// work clock which step an arrival joins, and so every batch that follows,
/// is the same in every pass and on every day. Latency is still wall time,
/// from the moment the request fell due.
pub const MEAN_GAP_WORK: f64 = 1010.0;

/// The arrival schedule, class order and prompt lengths of `serve_mix_open`
/// come from this constant, not from `--seed`, which draws the tokens. One
/// scene is 48 requests, far too few for an open-loop queue's percentiles to
/// settle across schedules: over ten schedules `tbt_s_p50` ran 0.36-1.17 ms
/// and `ttft_s_p50` 53-141 ms.
const SCHEDULE_SEED: u64 = 0x5EED;
/// `overcommit_swap`'s prompts come from this constant, not from `--seed`.
/// Under overcommit the prompts decide which pages the selector lets go
/// cold, so when the pool fills, so who is preempted and for how long: over
/// ten seeds the work per pass ran 21k-28k tokens, `makespan_s` spread 17 %
/// and `tbt_s_p99` (a preemption stall) 26 %, with the box's noise already
/// taken out. One fixed scene measures the system; ten measure the dice.
const OVERCOMMIT_SEED: u64 = 0xC01D;
/// Interactive share of `serve_mix_open`: 3 in 4.
const INTERACTIVE_PER_4: usize = 3;
const SYSTEM_PREFIX_TOKENS: usize = 512;

/// `(ttft_limit_s, tpot_limit_s)` a request of `class` must meet to count
/// toward `slo_goodput_frac`: 4 x the seed commit's own p50 of the same
/// per-request quantity on that workload (per class on the mix), frozen here;
/// the README has the measured p50s. The second limit applies to a request's
/// mean gap between tokens, the time per output token its reader experiences.
pub fn slo_limits(workload: Workload, class: SloClass) -> (f64, f64) {
    match (workload, class) {
        (Workload::LongPrefill, _) => (7.4, 0.0018),
        (Workload::LongDecode, _) => (9.6, 0.0070),
        (Workload::OvercommitSwap, _) => (11.6, 0.024),
        (Workload::ServeMixOpen, SloClass::Interactive) => (0.18, 0.0012),
        (Workload::ServeMixOpen, _) => (1.3, 0.0049),
    }
}

/// Exponential gaps of mean `mean_gap`, one drawn inside each of `n`
/// equal-probability strata and then shuffled: every draw offers the same
/// load over the same span, and only the order of short and long gaps
/// differs. Returns the cumulative due times.
pub fn poisson_schedule(rng: &mut Rng, n: usize, mean_gap: f64) -> Vec<u64> {
    let mut gaps: Vec<f64> = (0..n)
        .map(|i| {
            let u = (i as f64 + rng.unit()) / n as f64;
            -(1.0 - u).ln() * mean_gap
        })
        .collect();
    rng.shuffle(&mut gaps);
    let mut t = 0.0;
    gaps.iter()
        .map(|g| {
            t += g;
            t as u64
        })
        .collect()
}

/// `n` lengths covering `lo..=hi` evenly, shuffled.
fn stratified_lengths(rng: &mut Rng, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n)
        .map(|i| lo + ((hi - lo) as f64 * (i as f64 + rng.unit()) / n as f64) as usize)
        .collect();
    rng.shuffle(&mut v);
    v
}

/// The scene of `workload` for `seed`. Every pass of a run replays it.
pub fn scene(workload: Workload, seed: u64, scale: Scale) -> Scene {
    let mut rng = substream(seed, workload);
    let d = scale.div();
    let at_zero = |spec: RequestSpec| Req { due_work: 0, spec };
    match workload {
        Workload::LongPrefill => Scene {
            arrival: Arrival::Closed { clients: 1 },
            requests: (0..scale.pick(2, 1) as u64)
                .map(|id| at_zero(RequestSpec::new(id, rng.tokens(4096 / d)).max_new_tokens(4)))
                .collect(),
        },
        Workload::LongDecode => Scene {
            arrival: Arrival::Open,
            requests: (0..scale.pick(4, 2) as u64)
                .map(|id| {
                    at_zero(RequestSpec::new(id, rng.tokens(2048 / d)).max_new_tokens(2048 / d))
                })
                .collect(),
        },
        Workload::OvercommitSwap => Scene {
            arrival: Arrival::Open,
            requests: layers::overcommit_prompts(OVERCOMMIT_SEED, scale.pick(3, 1), d)
                .into_iter()
                .enumerate()
                .map(|(id, (prompt, out))| {
                    at_zero(RequestSpec::new(id as u64, prompt).max_new_tokens(out))
                })
                .collect(),
        },
        Workload::ServeMixOpen => {
            let n = scale.pick(48, 8);
            let interactive = n * INTERACTIVE_PER_4 / 4;
            let system = rng.tokens(SYSTEM_PREFIX_TOKENS / d);
            let mut shape = substream(SCHEDULE_SEED, workload);
            let mut is_interactive: Vec<bool> = (0..n).map(|i| i < interactive).collect();
            shape.shuffle(&mut is_interactive);
            let mut unique = stratified_lengths(&mut shape, interactive, 64 / d, 192 / d);
            let mut batch = stratified_lengths(&mut shape, n - interactive, 768 / d, 1280 / d);
            let due = poisson_schedule(&mut shape, n, MEAN_GAP_WORK / d as f64);
            let requests = due
                .into_iter()
                .zip(is_interactive)
                .enumerate()
                .map(|(id, (due_work, interactive))| {
                    let spec = if interactive {
                        let mut prompt = system.clone();
                        prompt.extend(rng.tokens(unique.pop().expect("one length each")));
                        RequestSpec::new(id as u64, prompt)
                            .max_new_tokens(32 / d.min(8))
                            .class(SloClass::Interactive)
                    } else {
                        RequestSpec::new(id as u64, rng.tokens(batch.pop().expect("one each")))
                            .max_new_tokens(64 / d.min(8))
                            .class(SloClass::Batch)
                    };
                    Req { due_work, spec }
                })
                .collect();
            Scene {
                arrival: Arrival::Open,
                requests,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenes_are_pure_functions_of_the_seed() {
        for w in Workload::ALL {
            let a = scene(w, 7, Scale::Smoke);
            assert_eq!(a, scene(w, 7, Scale::Smoke), "{}", w.name());
            // Only `overcommit_swap` takes nothing from the seed.
            let fixed = w == Workload::OvercommitSwap;
            assert_eq!(a == scene(w, 8, Scale::Smoke), fixed, "{}", w.name());
        }
    }

    #[test]
    fn poisson_schedule_offers_the_stated_load_whatever_the_seed() {
        let (n, mean) = (400, 1000.0);
        for seed in 0..8 {
            let due = poisson_schedule(&mut Rng::new(seed), n, mean);
            assert_eq!(due, poisson_schedule(&mut Rng::new(seed), n, mean));
            assert!(due.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
            // Stratified gaps: the span is n x mean to within a percent.
            let span = *due.last().unwrap() as f64;
            assert!((span / (n as f64 * mean) - 1.0).abs() < 0.01, "{span}");
        }
        // Gaps are exponential: about 1/e of them exceed the mean.
        let due = poisson_schedule(&mut Rng::new(3), n, mean);
        let long = due
            .windows(2)
            .filter(|w| (w[1] - w[0]) as f64 > mean)
            .count();
        assert!((long as f64 / n as f64 - (-1f64).exp()).abs() < 0.02);
    }

    #[test]
    fn serve_mix_has_the_stated_shape() {
        let s = scene(Workload::ServeMixOpen, 11, Scale::Full);
        assert_eq!(s.arrival, Arrival::Open);
        assert_eq!(s.requests.len(), 48);
        let interactive: Vec<&Req> = s
            .requests
            .iter()
            .filter(|r| r.spec.class == SloClass::Interactive)
            .collect();
        assert_eq!(interactive.len(), 36);
        let prefix = &interactive[0].spec.prompt[..SYSTEM_PREFIX_TOKENS];
        for r in &interactive {
            assert_eq!(&r.spec.prompt[..SYSTEM_PREFIX_TOKENS], prefix);
            let unique = r.spec.prompt.len() - SYSTEM_PREFIX_TOKENS;
            assert!((64..=192).contains(&unique), "{unique}");
            assert_eq!(r.spec.max_new_tokens, 32);
        }
        for r in s
            .requests
            .iter()
            .filter(|r| r.spec.class == SloClass::Batch)
        {
            assert!((768..=1280).contains(&r.spec.prompt.len()));
            assert_ne!(
                &r.spec.prompt[..16],
                &prefix[..16],
                "batch prompts are unshared"
            );
            assert_eq!(r.spec.max_new_tokens, 64);
        }
        // The seed draws the tokens; the schedule, the class order and the
        // lengths are the constant's.
        let other = scene(Workload::ServeMixOpen, 12, Scale::Full);
        assert_ne!(other, s);
        for (a, b) in s.requests.iter().zip(&other.requests) {
            assert_eq!(a.due_work, b.due_work);
            assert_eq!(a.spec.prompt.len(), b.spec.prompt.len());
            assert_eq!(a.spec.class, b.spec.class);
        }
    }

    #[test]
    fn closed_scenes_have_the_stated_shape() {
        let p = scene(Workload::LongPrefill, 1, Scale::Full);
        assert_eq!(p.arrival, Arrival::Closed { clients: 1 });
        assert!(p.requests.iter().all(|r| r.spec.prompt.len() == 4096));
        let d = scene(Workload::LongDecode, 1, Scale::Full);
        assert_eq!(d.requests.len(), 4);
        assert!(d
            .requests
            .iter()
            .all(|r| r.spec.prompt.len() == 2048 && r.spec.max_new_tokens == 2048));
        let o = scene(Workload::OvercommitSwap, 1, Scale::Full);
        assert_eq!(o.requests.len(), 12);
        assert_eq!(o.requests[3].spec.prompt.len(), 1024 + 3 * 128);
        assert!(o.requests.iter().all(|r| r.spec.max_new_tokens == 192));
        for s in [&p, &d, &o] {
            assert!(s.requests.iter().all(|r| r.due_work == 0));
            let mut tokens = s.requests.iter().flat_map(|r| &r.spec.prompt);
            assert!(tokens.all(|&t| (t as usize) < layers::VOCAB));
        }
    }
}
