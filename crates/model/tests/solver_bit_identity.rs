//! The chain solver must return exactly the bits of the straightforward
//! construction it replaced: a builder with owned state names and one edge
//! list per state, per-call failure terms, a `HashMap` row index and a
//! `Vec<Vec<f64>>` Gaussian elimination. `reference` below is a frozen copy
//! of that construction and of the chain topologies built on it; every
//! property compares `expected_time` bit for bit, `None` included.

use aic_model::concurrent::{net2_at, ConcurrentModel};
use aic_model::failure::FailureRates;
use aic_model::moody::{moody_chain, MoodySchedule};
use aic_model::nonstatic::{chain_l2l3_nonstatic, optimal_w_budgeted, IntervalParams};
use aic_model::optimize::{evt_minimize_with, golden_minimize};
use aic_model::params::LevelCosts;
use aic_model::young_daly::single_level_chain;
use proptest::prelude::*;

mod reference {
    use std::collections::HashMap;

    use aic_model::failure::FailureRates;
    use aic_model::moody::MoodySchedule;
    use aic_model::nonstatic::IntervalParams;
    use aic_model::params::LevelCosts;

    fn p_survive(rates: &FailureRates, tau: f64) -> f64 {
        (-rates.total() * tau).exp()
    }

    fn p_fail_level(rates: &FailureRates, k: usize, tau: f64) -> f64 {
        let total = rates.total();
        if total == 0.0 {
            return 0.0;
        }
        (rates.rate(k) / total) * (-(-total * tau).exp_m1())
    }

    fn expected_time_to_fail(rates: &FailureRates, tau: f64) -> f64 {
        let lam = rates.total();
        let x = lam * tau;
        if x < 1e-8 {
            return tau / 2.0 * (1.0 - x / 6.0);
        }
        let denom = -(-x).exp_m1();
        1.0 / lam - tau * (-x).exp() / denom
    }

    #[derive(Clone, Copy, PartialEq, Eq, Hash)]
    pub struct StateId(usize);

    struct Edge {
        dest: usize,
        prob: f64,
        time: f64,
    }

    struct State {
        #[allow(dead_code)]
        name: String,
        edges: Vec<Edge>,
        absorbing: bool,
    }

    pub struct Chain {
        states: Vec<State>,
        start: usize,
    }

    #[derive(Default)]
    pub struct ChainBuilder {
        states: Vec<State>,
    }

    impl ChainBuilder {
        pub fn state(&mut self, name: impl Into<String>) -> StateId {
            self.states.push(State {
                name: name.into(),
                edges: Vec::new(),
                absorbing: false,
            });
            StateId(self.states.len() - 1)
        }

        pub fn absorbing(&mut self, name: impl Into<String>) -> StateId {
            self.states.push(State {
                name: name.into(),
                edges: Vec::new(),
                absorbing: true,
            });
            StateId(self.states.len() - 1)
        }

        fn edge(&mut self, from: StateId, to: StateId, prob: f64, time: f64) {
            self.states[from.0].edges.push(Edge {
                dest: to.0,
                prob,
                time,
            });
        }

        pub fn exposure(
            &mut self,
            from: StateId,
            tau: f64,
            success_time: f64,
            ok: StateId,
            on_fail: &[StateId],
            rates: &FailureRates,
        ) {
            self.edge(from, ok, p_survive(rates, tau), success_time);
            let t_fail = expected_time_to_fail(rates, tau);
            for (k, dest) in on_fail.iter().enumerate() {
                let p = p_fail_level(rates, k + 1, tau);
                if p > 0.0 {
                    self.edge(from, *dest, p, t_fail);
                }
            }
        }

        pub fn build(self, start: StateId) -> Chain {
            Chain {
                states: self.states,
                start: start.0,
            }
        }
    }

    #[allow(clippy::needless_range_loop)]
    fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
        let n = b.len();
        for col in 0..n {
            let pivot =
                (col..n).max_by(|&i, &j| a[i][col].abs().partial_cmp(&a[j][col].abs()).unwrap())?;
            if a[pivot][col].abs() < 1e-300 {
                return None;
            }
            a.swap(col, pivot);
            b.swap(col, pivot);
            let inv = 1.0 / a[col][col];
            for row in col + 1..n {
                let factor = a[row][col] * inv;
                if factor == 0.0 {
                    continue;
                }
                for k in col..n {
                    a[row][k] -= factor * a[col][k];
                }
                b[row] -= factor * b[col];
            }
        }
        let mut x = vec![0.0; n];
        for row in (0..n).rev() {
            let mut acc = b[row];
            for k in row + 1..n {
                acc -= a[row][k] * x[k];
            }
            x[row] = acc / a[row][row];
        }
        Some(x)
    }

    impl Chain {
        pub fn expected_time(&self) -> Option<f64> {
            let live: Vec<usize> = (0..self.states.len())
                .filter(|&i| !self.states[i].absorbing)
                .collect();
            if live.is_empty() {
                return Some(0.0);
            }
            let index_of: HashMap<usize, usize> =
                live.iter().enumerate().map(|(row, &s)| (s, row)).collect();
            let n = live.len();
            let mut a = vec![vec![0.0; n]; n];
            let mut b = vec![0.0; n];
            for (row, &s) in live.iter().enumerate() {
                a[row][row] = 1.0;
                for e in &self.states[s].edges {
                    b[row] += e.prob * e.time;
                    if let Some(&col) = index_of.get(&e.dest) {
                        a[row][col] -= e.prob;
                    }
                }
            }
            let x = solve(a, b)?;
            if x.iter().any(|v| !v.is_finite() || *v < -1e-9) {
                return None;
            }
            if self.states[self.start].absorbing {
                return Some(0.0);
            }
            Some(x[index_of[&self.start]])
        }
    }

    // ---- Chain topologies, as built on the builder above. ----

    struct ChainSpec {
        window_rec: [Option<f64>; 3],
        span_rec: [f64; 3],
    }

    fn build_interval_chain(
        w: f64,
        c1: f64,
        win: f64,
        r3: f64,
        spec: &ChainSpec,
        rates: &FailureRates,
    ) -> Chain {
        let mut b = ChainBuilder::default();
        let span = w + c1;
        let win_a = win.min(span);
        let win_b = (span - win_a).max(0.0);

        let s1a = b.state("S1a:window");
        let s1b = b.state("S1b:landed");
        let redo = b.state("REDO:span");
        let rerun = b.state("RERUN:prev-window");
        let rec3_deep = b.state("R3:deep");
        let done = b.absorbing("DONE");
        let rec_a: Vec<_> = (0..3).map(|k| b.state(format!("Ra{k}"))).collect();
        let rec_b: Vec<_> = (0..3).map(|k| b.state(format!("Rb{k}"))).collect();
        let rec_rr: Vec<_> = (0..3).map(|k| b.state(format!("Rrr{k}"))).collect();
        let window_dests: Vec<_> = (0..3)
            .map(|k| match spec.window_rec[k] {
                Some(_) => rec_a[k],
                None => rec3_deep,
            })
            .collect();
        let span_dests: Vec<_> = (0..3).map(|k| rec_b[k]).collect();
        let rerun_dests: Vec<_> = (0..3).map(|k| rec_rr[k]).collect();

        b.exposure(s1a, win_a, win_a, s1b, &window_dests, rates);
        b.exposure(s1b, win_b, win_b, done, &span_dests, rates);
        b.exposure(redo, span, span, done, &span_dests, rates);
        b.exposure(rerun, win, win, s1a, &rerun_dests, rates);
        b.exposure(
            rec3_deep,
            r3,
            r3,
            rerun,
            &[rec3_deep, rec3_deep, rec3_deep],
            rates,
        );
        for k in 0..3 {
            let ra_time = spec.window_rec[k].unwrap_or(r3);
            b.exposure(rec_a[k], ra_time, ra_time, s1a, &window_dests, rates);
            b.exposure(
                rec_b[k],
                spec.span_rec[k],
                spec.span_rec[k],
                redo,
                &span_dests,
                rates,
            );
            b.exposure(
                rec_rr[k],
                spec.span_rec[k],
                spec.span_rec[k],
                rerun,
                &rerun_dests,
                rates,
            );
        }
        b.build(s1a)
    }

    /// `model`: 0 = L1L3, 1 = L2L3, 2 = L1L2L3.
    pub fn concurrent_chain(
        model: usize,
        w: f64,
        costs: &LevelCosts,
        rates: &FailureRates,
    ) -> Chain {
        let spec = match model {
            0 => ChainSpec {
                window_rec: [Some(costs.r(1)), None, None],
                span_rec: [costs.r(1), costs.r(3), costs.r(3)],
            },
            1 => ChainSpec {
                window_rec: [Some(costs.r(2)), Some(costs.r(2)), None],
                span_rec: [costs.r(2), costs.r(2), costs.r(3)],
            },
            _ => ChainSpec {
                window_rec: [Some(costs.r(1)), Some(costs.r(2)), None],
                span_rec: [costs.r(1), costs.r(2), costs.r(3)],
            },
        };
        build_interval_chain(w, costs.c(1), costs.transfer(3), costs.r(3), &spec, rates)
    }

    pub fn chain_l2l3_nonstatic(
        w: f64,
        cur: &IntervalParams,
        prev: &IntervalParams,
        rates: &FailureRates,
    ) -> Chain {
        let c1 = cur.c[0];
        let win_prev = prev.transfer(3);
        let r2_prev = prev.r[1];
        let r3_prev = prev.r[2];

        let mut b = ChainBuilder::default();
        let span = w + c1;
        let win_a = win_prev.min(span);
        let win_b = (span - win_a).max(0.0);

        let s1a = b.state("S1a:window(i-1)");
        let s1b = b.state("S1b:landed");
        let redo = b.state("REDO:span");
        let rerun = b.state("RERUN:prev-window(i-1)");
        let rec3_deep = b.state("R3:deep(i-1)");
        let rec2a = b.state("R2a(i-1)");
        let rec2b = b.state("R2b(i-1)");
        let rec3b = b.state("R3b(i-1)");
        let rec2rr = b.state("R2rr(i-1)");
        let rec3rr = b.state("R3rr(i-1)");
        let done = b.absorbing("DONE");

        b.exposure(s1a, win_a, win_a, s1b, &[rec2a, rec2a, rec3_deep], rates);
        b.exposure(s1b, win_b, win_b, done, &[rec2b, rec2b, rec3b], rates);
        b.exposure(redo, span, span, done, &[rec2b, rec2b, rec3b], rates);
        b.exposure(
            rerun,
            win_prev,
            win_prev,
            s1a,
            &[rec2rr, rec2rr, rec3rr],
            rates,
        );
        b.exposure(
            rec3_deep,
            r3_prev,
            r3_prev,
            rerun,
            &[rec3_deep, rec3_deep, rec3_deep],
            rates,
        );
        b.exposure(
            rec2a,
            r2_prev,
            r2_prev,
            s1a,
            &[rec2a, rec2a, rec3_deep],
            rates,
        );
        b.exposure(rec2b, r2_prev, r2_prev, redo, &[rec2b, rec2b, rec3b], rates);
        b.exposure(rec3b, r3_prev, r3_prev, redo, &[rec2b, rec2b, rec3b], rates);
        b.exposure(
            rec2rr,
            r2_prev,
            r2_prev,
            rerun,
            &[rec2rr, rec2rr, rec3rr],
            rates,
        );
        b.exposure(
            rec3rr,
            r3_prev,
            r3_prev,
            rerun,
            &[rec2rr, rec2rr, rec3rr],
            rates,
        );
        b.build(s1a)
    }

    fn resume_segment(levels: &[u8], j: usize, k: u8) -> usize {
        for m in (0..j).rev() {
            if levels[m] >= k {
                return m + 1;
            }
        }
        0
    }

    pub fn moody_chain(
        w: f64,
        sched: &MoodySchedule,
        costs: &LevelCosts,
        rates: &FailureRates,
    ) -> Chain {
        let levels = sched.cycle_levels();
        let s_count = levels.len();

        let mut b = ChainBuilder::default();
        let segs: Vec<StateId> = (0..s_count)
            .map(|j| b.state(format!("seg{j}:L{}", levels[j])))
            .collect();
        let done = b.absorbing("DONE");

        let mut rec_states: HashMap<(u8, usize), StateId> = HashMap::new();
        let mut queue: Vec<(u8, usize)> = Vec::new();
        for (j, _) in levels.iter().enumerate() {
            for k in 1..=3u8 {
                let key = (k, resume_segment(&levels, j, k));
                if let std::collections::hash_map::Entry::Vacant(e) = rec_states.entry(key) {
                    let id = b.state(format!("R{k}@{}", key.1));
                    e.insert(id);
                    queue.push(key);
                }
            }
        }
        while let Some((_, resume)) = queue.pop() {
            for k2 in 1..=3u8 {
                let key2 = (k2, resume_segment(&levels, resume, k2));
                if let std::collections::hash_map::Entry::Vacant(e) = rec_states.entry(key2) {
                    let id = b.state(format!("R{k2}@{}", key2.1));
                    e.insert(id);
                    queue.push(key2);
                }
            }
        }

        for (j, &lvl) in levels.iter().enumerate() {
            let tau = w + costs.c(lvl as usize);
            let ok = if j + 1 < s_count { segs[j + 1] } else { done };
            let fail_dests: Vec<StateId> = (1..=3u8)
                .map(|k| rec_states[&(k, resume_segment(&levels, j, k))])
                .collect();
            b.exposure(segs[j], tau, tau, ok, &fail_dests, rates);
        }
        for (&(k, resume), &id) in &rec_states {
            let tau = costs.r(k as usize);
            let ok = if resume < s_count { segs[resume] } else { done };
            let fail_dests: Vec<StateId> = (1..=3u8)
                .map(|k2| rec_states[&(k2, resume_segment(&levels, resume, k2))])
                .collect();
            b.exposure(id, tau, tau, ok, &fail_dests, rates);
        }
        b.build(segs[0])
    }

    pub fn single_level_chain(w: f64, c: f64, r: f64, lambda: f64) -> Chain {
        let rates = FailureRates::new(vec![lambda]);
        let mut b = ChainBuilder::default();
        let work = b.state("work+ckpt");
        let rec = b.state("recover");
        let done = b.absorbing("done");
        b.exposure(work, w + c, w + c, done, &[rec], &rates);
        b.exposure(rec, r, r, work, &[rec], &rates);
        b.build(work)
    }
}

/// `expected_time` as comparable bits: `None` stays distinct from every
/// finite value.
fn bits(t: Option<f64>) -> Option<u64> {
    t.map(f64::to_bits)
}

/// `10^e` for a drawn exponent: rates, costs and spans span many decades,
/// down to underflowing survival probabilities.
fn dec(e: f64) -> f64 {
    10f64.powf(e)
}

/// Three level rates from exponents; an exponent below −9 draws a zero
/// rate, so chains with missing failure edges are covered too.
fn rates_from(e: (f64, f64, f64)) -> FailureRates {
    let r = |x: f64| if x < -9.0 { 0.0 } else { dec(x) };
    let (l1, l2, l3) = (r(e.0), r(e.1), r(e.2));
    if l1 + l2 + l3 == 0.0 {
        FailureRates::three(dec(e.0), l2, l3)
    } else {
        FailureRates::three(l1, l2, l3)
    }
}

/// Level costs with `c1 ≤ c2, c3` and independent recovery times.
fn costs_from(c1: f64, d2: f64, d3: f64, r: (f64, f64, f64)) -> LevelCosts {
    let c1 = dec(c1);
    LevelCosts {
        c: [c1, c1 + dec(d2), c1 + dec(d3)],
        r: [dec(r.0), dec(r.1), dec(r.2)],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn concurrent_chains_match_reference_bits(
        w in -3.0f64..8.0,
        rates in (-11.0f64..0.0, -11.0f64..0.0, -11.0f64..0.0),
        c in (-4.0f64..3.0, -4.0f64..3.0, -4.0f64..5.0),
        r in (-4.0f64..3.0, -4.0f64..3.0, -4.0f64..5.0),
    ) {
        let w = dec(w);
        let rates = rates_from(rates);
        let costs = costs_from(c.0, c.1, c.2, r);
        for (i, model) in ConcurrentModel::ALL.into_iter().enumerate() {
            let want = reference::concurrent_chain(i, w, &costs, &rates).expected_time();
            let got = model.chain(w, &costs, &rates).expected_time();
            prop_assert_eq!(bits(got), bits(want), "{} w={} {:?} {:?}", model.name(), w, costs, rates);
            let net2 = want.unwrap_or(f64::INFINITY) / w;
            prop_assert_eq!(net2_at(model, w, &costs, &rates).to_bits(), net2.to_bits());
        }
    }

    #[test]
    fn nonstatic_chain_matches_reference_bits(
        w in -3.0f64..8.0,
        rates in (-11.0f64..0.0, -11.0f64..0.0, -11.0f64..0.0),
        cur in (-4.0f64..3.0, -4.0f64..3.0, -4.0f64..5.0),
        prev in (-4.0f64..3.0, -4.0f64..3.0, -4.0f64..5.0),
        r in (-4.0f64..3.0, -4.0f64..3.0, -4.0f64..5.0),
    ) {
        let w = dec(w);
        let rates = rates_from(rates);
        let cur = IntervalParams::symmetric(dec(cur.0), dec(cur.0) + dec(cur.1), dec(cur.0) + dec(cur.2));
        let p = costs_from(prev.0, prev.1, prev.2, r);
        let prev = IntervalParams { c: p.c, r: p.r };
        let want = reference::chain_l2l3_nonstatic(w, &cur, &prev, &rates).expected_time();
        let got = chain_l2l3_nonstatic(w, &cur, &prev, &rates).expected_time();
        prop_assert_eq!(bits(got), bits(want), "w={} {:?} {:?} {:?}", w, cur, prev, rates);
    }

    #[test]
    fn moody_chain_matches_reference_bits(
        w in -1.0f64..6.0,
        sched in (0usize..5, 0usize..4),
        rates in (-11.0f64..-1.0, -11.0f64..-1.0, -11.0f64..-1.0),
        c in (-3.0f64..2.0, -3.0f64..2.0, -3.0f64..4.0),
    ) {
        let w = dec(w);
        let sched = MoodySchedule { n1: sched.0, n2: sched.1 };
        let rates = rates_from(rates);
        let costs = costs_from(c.0, c.1, c.2, (c.0, c.1, c.2));
        let want = reference::moody_chain(w, &sched, &costs, &rates).expected_time();
        let got = moody_chain(w, &sched, &costs, &rates).expected_time();
        prop_assert_eq!(bits(got), bits(want), "w={} {:?} {:?}", w, sched, rates);
    }

    #[test]
    fn single_level_chain_matches_reference_bits(
        w in -3.0f64..9.0,
        c in -4.0f64..4.0,
        r in -4.0f64..4.0,
        lambda in -11.0f64..1.0,
    ) {
        let (w, c, r, lambda) = (dec(w), dec(c), dec(r), dec(lambda));
        let want = reference::single_level_chain(w, c, r, lambda).expected_time();
        let got = single_level_chain(w, c, r, lambda).expected_time();
        prop_assert_eq!(bits(got), bits(want), "w={} c={} r={} lambda={}", w, c, r, lambda);
    }

    // The whole golden-section search the fleet runs after every commit
    // (`sic_optimal_w_pooled` minimizes L2L3 NET² over `w`): the same w*
    // bits from both objectives, at fleet-like millisecond costs and at
    // the paper's testbed scale.
    #[test]
    fn golden_w_star_matches_reference_bits(
        c1 in -4.0f64..1.0,
        d2 in -6.0f64..1.0,
        d3 in -6.0f64..3.0,
        total in -4.0f64..-2.0,
        base in 1.0f64..5.0,
    ) {
        let rates = aic_model::params::CoastalProfile::default().rates().with_total(dec(total));
        let costs = costs_from(c1, d2, d3, (c1, c1 + d2, c1 + d3));
        let costs = LevelCosts { c: costs.c, r: costs.c };
        let w_lo = costs.transfer(3).max(1.0);
        let w_hi = (dec(base) * 4.0).max(w_lo * 2.0);
        let want = golden_minimize(
            |w| reference::concurrent_chain(1, w, &costs, &rates)
                .expected_time()
                .unwrap_or(f64::INFINITY) / w,
            w_lo,
            w_hi,
            1e-6,
        );
        // One span chain reused across every evaluation, as the fleet does.
        let chain = ConcurrentModel::L2L3.span_chain(&costs, &rates);
        let got = golden_minimize(|w| chain.net2(w), w_lo, w_hi, 1e-6);
        prop_assert_eq!(got.x.to_bits(), want.x.to_bits());
        prop_assert_eq!(got.value.to_bits(), want.value.to_bits());
    }

    // AIC's online decision: the EVT + Newton–Raphson search over the
    // non-static chain, with a span chain reused across its evaluations.
    #[test]
    fn evt_w_star_matches_reference_bits(
        cur in (-4.0f64..1.0, -6.0f64..1.0, -6.0f64..3.0),
        prev in (-4.0f64..1.0, -6.0f64..1.0, -6.0f64..3.0),
        total in -4.0f64..-2.0,
        seed in 0.0f64..4.0,
    ) {
        let rates = aic_model::params::CoastalProfile::default().rates().with_total(dec(total));
        let params = |e: (f64, f64, f64)| {
            IntervalParams::symmetric(dec(e.0), dec(e.0) + dec(e.1), dec(e.0) + dec(e.2))
        };
        let (cur, prev) = (params(cur), params(prev));
        let lo = prev.w_lower_bound();
        let want = evt_minimize_with(
            |w| reference::chain_l2l3_nonstatic(w, &cur, &prev, &rates)
                .expected_time()
                .unwrap_or(f64::INFINITY) / w,
            lo,
            1e5,
            dec(seed),
            30,
            1e-4,
        );
        let got = optimal_w_budgeted(&cur, &prev, &rates, 1.0, 1e5, dec(seed), 30, 1e-4);
        prop_assert_eq!(got.x.to_bits(), want.x.to_bits());
        prop_assert_eq!(got.value.to_bits(), want.value.to_bits());
    }
}

/// Spans long enough that survival underflows to exactly zero make the
/// system singular: both constructions must report it the same way.
#[test]
fn hopeless_spans_are_none_in_both() {
    let rates = FailureRates::three(1e-2, 1e-2, 1e-2);
    let costs = LevelCosts::symmetric(1.0, 2.0, 50.0);
    for w in [1e5, 1e6, 1e8] {
        for (i, model) in ConcurrentModel::ALL.into_iter().enumerate() {
            let want = reference::concurrent_chain(i, w, &costs, &rates).expected_time();
            let got = model.chain(w, &costs, &rates).expected_time();
            assert_eq!(bits(got), bits(want), "{} w={w}", model.name());
        }
    }
    let huge = reference::single_level_chain(1e9, 1.0, 1.0, 1.0).expected_time();
    assert_eq!(huge, None);
    assert_eq!(single_level_chain(1e9, 1.0, 1.0, 1.0).expected_time(), None);
}
