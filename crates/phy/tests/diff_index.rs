//! Differential tests: `MediumIndex::Naive` and `MediumIndex::Grid` must be
//! observationally *byte-identical*. Random event tapes — transmission
//! starts/ends, mobility steps, neighborhood queries — are driven through
//! two media that differ only in index strategy, and every observable is
//! compared: carrier-sense edges, sparse receptions, busy flags, active
//! counts, `nodes_within` answers, and the full JSONL trace journal.
//!
//! Failures shrink via the mg-testkit harness, so a divergence reports the
//! minimal (positions, tape) pair that triggers it.
//!
//! `Grid` keeps overlap and worst-interference bookkeeping only for a
//! frame's decodable receivers, while `Naive` judges every senseable node
//! with the reference arithmetic. The box tapes pack nodes close enough
//! that receivers decode, collide and miss frames by overlap, and
//! `box_tapes_reach_every_receiver_outcome` pins that they do.

use mg_geom::Vec2;
use mg_phy::{
    EdgeChange, EndedTx, Medium, MediumIndex, PropagationModel, RadioParams, RxOutcome, TxId,
};
use mg_sim::rng::Xoshiro256;
use mg_sim::SimTime;
use mg_testkit::prop::{check, check_with, Config, Gen, TkResult};
use mg_testkit::tk_assert_eq;
use mg_trace::{TraceConfig, Tracer};
use std::cell::RefCell;

/// Starts a transmission, returning its id and the busy edges it causes.
fn begin(m: &mut Medium, src: usize, now: SimTime, rng: &mut Xoshiro256) -> (TxId, Vec<EdgeChange>) {
    let mut edges = Vec::new();
    let tx = m.begin_tx(src, now, rng, &mut edges);
    (tx, edges)
}

/// Ends a transmission into a fresh [`EndedTx`].
fn end(m: &mut Medium, tx: TxId, now: SimTime) -> EndedTx {
    let mut ended = EndedTx::default();
    m.end_tx(tx, now, &mut ended);
    ended
}

/// The nodes within `range` of `center`, as a fresh vector.
fn within(m: &Medium, center: Vec2, range: f64) -> Vec<usize> {
    let mut out = Vec::new();
    m.nodes_within(center, range, &mut out);
    out
}

/// One step of a random event tape.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Toggle transmission at a node: begin if idle, end if in flight.
    Toggle { node: usize, gap_us: u64 },
    /// Move a node (possibly outside the original field).
    Move { node: usize, x: f64, y: f64 },
    /// Neighborhood query: both media must return the same id list.
    Query { center_x: f64, center_y: f64, range: f64 },
}

/// 2–24 nodes scattered over `0..field` metres square, and a tape of up to
/// 40 ops whose moves and queries overshoot the field by 500 m below and
/// 1000 m above.
fn gen_tape_in(g: &mut Gen, field: f64) -> (Vec<Vec2>, Vec<Op>, u64) {
    let positions = g.vec(2..24, |g| {
        Vec2::new(g.f64_in(0.0..field), g.f64_in(0.0..field))
    });
    let n = positions.len();
    let tape = g.vec(1..40, |g| match g.usize_in(0..5) {
        0 => Op::Move {
            node: g.usize_in(0..n),
            // Deliberately overshoots the initial field on both sides so
            // the grid must handle cells that never existed at build time.
            x: g.f64_in(-500.0..field + 1000.0),
            y: g.f64_in(-500.0..field + 1000.0),
        },
        1 => Op::Query {
            center_x: g.f64_in(-500.0..field + 1000.0),
            center_y: g.f64_in(-500.0..field + 1000.0),
            range: g.f64_in(0.0..2000.0),
        },
        _ => Op::Toggle {
            node: g.usize_in(0..n),
            gap_us: g.u64_in(1..80),
        },
    });
    (positions, tape, g.any_u64())
}

/// A sparse 4 km field: most footprints hold few nodes, and moves carry
/// nodes into cells the grid did not have at build time.
fn gen_tape(g: &mut Gen) -> (Vec<Vec2>, Vec<Op>, u64) {
    gen_tape_in(g, 4000.0)
}

/// A 700 m box: each footprint mixes decodable receivers (≤ 250 m),
/// sensed-only nodes (≤ 550 m) and interference-ring nodes, and frames
/// overlap, so receivers decode, collide and lose frames to their own
/// transmissions.
fn gen_box_tape(g: &mut Gen) -> (Vec<Vec2>, Vec<Op>, u64) {
    gen_tape_in(g, 700.0)
}

/// Outcomes at decodable receivers — nodes whose mean received power clears
/// the decode threshold when the frame starts — summed over runs.
#[derive(Default, Debug)]
struct Tally {
    decoded: usize,
    collided: usize,
    /// A decodable receiver comes out `Sensed` only when it transmitted
    /// during the frame's flight.
    sensed: usize,
}

impl Tally {
    fn count(&mut self, ended: &EndedTx, receivers: &[usize]) {
        for &v in receivers {
            match ended.outcome_of(v) {
                RxOutcome::Decoded => self.decoded += 1,
                RxOutcome::Collided => self.collided += 1,
                RxOutcome::Sensed => self.sensed += 1,
                _ => {}
            }
        }
    }
}

/// The nodes that can decode a frame `src` starts now.
fn decodable_from(m: &Medium, src: usize) -> Vec<usize> {
    let (prop, radio) = (m.propagation(), m.radio());
    (0..m.node_count())
        .filter(|&v| {
            let d = m.position(src).distance(m.position(v));
            v != src && radio.decodable(radio.rx_power_dbm(prop.mean_path_loss_db(d)))
        })
        .collect()
}

/// Drives `tape` through a Naive and a Grid medium in lockstep and checks
/// every observable for equality. RNG streams start from the same seed, so
/// any draw-order divergence between the two paths also shows up. Outcomes
/// at decodable receivers are added to `tally`.
fn run_differential(
    prop: PropagationModel,
    positions: Vec<Vec2>,
    tape: &[Op],
    seed: u64,
    tally: &mut Tally,
) -> TkResult {
    let radio = RadioParams::paper_default(&prop);
    let n = positions.len();

    let journal_a = Tracer::new(TraceConfig::verbose());
    let journal_b = Tracer::new(TraceConfig::verbose());
    let mut naive = Medium::with_index(prop, radio, positions.clone(), MediumIndex::Naive);
    let mut grid = Medium::with_index(prop, radio, positions, MediumIndex::Grid);
    naive.set_tracer(journal_a.clone());
    grid.set_tracer(journal_b.clone());
    let mut rng_a = Xoshiro256::new(seed);
    let mut rng_b = Xoshiro256::new(seed);

    // node -> in-flight TxId pair (naive, grid) and the frame's decodable
    // receivers.
    let mut in_flight: Vec<Option<(TxId, TxId, Vec<usize>)>> = vec![None; n];
    let mut t = 0u64;

    let check_world = |naive: &Medium, grid: &Medium| -> TkResult {
        tk_assert_eq!(naive.active_count(), grid.active_count());
        for v in 0..n {
            tk_assert_eq!(naive.carrier_busy(v), grid.carrier_busy(v), "node {v}");
            tk_assert_eq!(naive.position(v), grid.position(v), "node {v}");
        }
        Ok(())
    };

    for &op in tape {
        match op {
            Op::Move { node, x, y } => {
                let p = Vec2::new(x, y);
                naive.set_position(node, p);
                grid.set_position(node, p);
            }
            Op::Query { center_x, center_y, range } => {
                let c = Vec2::new(center_x, center_y);
                tk_assert_eq!(
                    within(&naive, c, range),
                    within(&grid, c, range),
                    "nodes_within({c:?}, {range})"
                );
            }
            Op::Toggle { node, gap_us } => {
                t += gap_us;
                let now = SimTime::from_micros(t);
                match in_flight[node].take() {
                    Some((ta, tb, receivers)) => {
                        let ea = end(&mut naive, ta, now);
                        let eb = end(&mut grid, tb, now);
                        tk_assert_eq!(ea.src, eb.src);
                        tk_assert_eq!(ea.start, eb.start);
                        tk_assert_eq!(ea.receptions, eb.receptions, "src {node}");
                        tk_assert_eq!(ea.edges, eb.edges, "src {node}");
                        tk_assert_eq!(ea.outcome_of(node), RxOutcome::SelfTx);
                        tally.count(&ea, &receivers);
                    }
                    None => {
                        let receivers = decodable_from(&naive, node);
                        let (ta, edges_a) = begin(&mut naive, node, now, &mut rng_a);
                        let (tb, edges_b) = begin(&mut grid, node, now, &mut rng_b);
                        tk_assert_eq!(edges_a, edges_b, "src {node}");
                        in_flight[node] = Some((ta, tb, receivers));
                    }
                }
            }
        }
        check_world(&naive, &grid)?;
    }

    // Drain: every tape must end quiescent so end-of-flight accounting is
    // always exercised, even when the generator never toggled twice.
    for (node, flight) in in_flight.iter_mut().enumerate() {
        if let Some((ta, tb, receivers)) = flight.take() {
            t += 1;
            let now = SimTime::from_micros(t);
            let ea = end(&mut naive, ta, now);
            let eb = end(&mut grid, tb, now);
            tk_assert_eq!(ea.receptions, eb.receptions, "drain src {node}");
            tk_assert_eq!(ea.edges, eb.edges, "drain src {node}");
            tally.count(&ea, &receivers);
        }
    }
    tk_assert_eq!(naive.active_count(), 0);
    check_world(&naive, &grid)?;

    // The strongest gate: the PHY journals must be byte-identical. (They
    // may legitimately be empty — a tape whose transmitters are all out of
    // everyone's sensing range journals no edges; the non-vacuousness of
    // this gate is pinned by `journal_gate_is_not_vacuous`.)
    tk_assert_eq!(journal_a.to_jsonl(), journal_b.to_jsonl(), "trace journals diverge");
    Ok(())
}

/// Deterministic propagation: the grid prunes discovery to the interference
/// horizon, and must still agree with the full scan on every observable.
#[test]
fn naive_and_grid_agree_on_random_tapes() {
    check("naive_and_grid_agree_on_random_tapes", |g: &mut Gen| {
        let (positions, tape, seed) = gen_tape(g);
        let prop = match g.usize_in(0..3) {
            0 => PropagationModel::FreeSpace,
            1 => PropagationModel::TwoRayGround { ht: 1.5, hr: 1.5 },
            _ => PropagationModel::shadowing(g.f64_in(1.8..4.0), 0.0),
        };
        run_differential(prop, positions, &tape, seed, &mut Tally::default())
    });
}

/// The same lockstep comparison over box tapes, where most frames have
/// decodable receivers whose outcome hangs on overlap and interference.
#[test]
fn naive_and_grid_agree_on_box_tapes() {
    check("naive_and_grid_agree_on_box_tapes", |g: &mut Gen| {
        let (positions, tape, seed) = gen_box_tape(g);
        let prop = match g.usize_in(0..3) {
            0 => PropagationModel::FreeSpace,
            1 => PropagationModel::TwoRayGround { ht: 1.5, hr: 1.5 },
            _ => PropagationModel::shadowing(g.f64_in(1.8..4.0), 0.0),
        };
        run_differential(prop, positions, &tape, seed, &mut Tally::default())
    });
}

/// Pins that the box tapes exercise the receiver bookkeeping: over 64 of
/// them, decodable receivers decode, collide, and come out `Sensed` because
/// they transmitted during the frame.
#[test]
fn box_tapes_reach_every_receiver_outcome() {
    let total = RefCell::new(Tally::default());
    let cfg = Config { cases: 64, ..Config::default() };
    check_with(cfg, "box_tapes_reach_every_receiver_outcome", |g: &mut Gen| {
        let (positions, tape, seed) = gen_box_tape(g);
        let prop = PropagationModel::free_space();
        run_differential(prop, positions, &tape, seed, &mut total.borrow_mut())
    });
    let t = total.into_inner();
    assert!(t.decoded > 0 && t.collided > 0 && t.sensed > 0, "{t:?}");
}

/// Stochastic propagation (shadowing σ > 0): every receiver consumes an RNG
/// draw, so the grid must fall back to the full scan to keep the draw
/// streams — and therefore every downstream byte — identical.
#[test]
fn naive_and_grid_agree_under_stochastic_shadowing() {
    check(
        "naive_and_grid_agree_under_stochastic_shadowing",
        |g: &mut Gen| {
            let (positions, tape, seed) = gen_tape(g);
            let sigma = g.f64_in(0.5..8.0);
            let prop = PropagationModel::shadowing(2.0, sigma);
            run_differential(prop, positions, &tape, seed, &mut Tally::default())
        },
    );
}

/// Pins that the journal-equality gate in `run_differential` actually
/// compares something: one in-range transmission journals busy and idle
/// edges under both indexes.
#[test]
fn journal_gate_is_not_vacuous() {
    let prop = PropagationModel::free_space();
    let radio = RadioParams::paper_default(&prop);
    for index in [MediumIndex::Naive, MediumIndex::Grid] {
        let journal = Tracer::new(TraceConfig::verbose());
        let mut m = Medium::with_index(
            prop,
            radio,
            vec![Vec2::ZERO, Vec2::new(100.0, 0.0)],
            index,
        );
        m.set_tracer(journal.clone());
        let mut rng = Xoshiro256::new(7);
        let (tx, edges) = begin(&mut m, 0, SimTime::ZERO, &mut rng);
        assert_eq!(edges.len(), 1, "{index:?}");
        end(&mut m, tx, SimTime::from_micros(10));
        assert!(
            journal.to_jsonl().lines().count() >= 2,
            "{index:?}: busy + idle edges must be journaled"
        );
    }
}

/// Dense pathological layout: everyone stacked inside one sensing disk, so
/// every transmission covers every node and capture decisions are decided
/// by the aggregate-interference maxima both paths maintain.
#[test]
fn naive_and_grid_agree_in_a_single_hotspot() {
    check("naive_and_grid_agree_in_a_single_hotspot", |g: &mut Gen| {
        let n = g.usize_in(2..16);
        let positions: Vec<Vec2> = (0..n)
            .map(|_| Vec2::new(g.f64_in(1000.0..1200.0), g.f64_in(1000.0..1200.0)))
            .collect();
        let tape = g.vec(1..40, |g| Op::Toggle {
            node: g.usize_in(0..n),
            gap_us: g.u64_in(1..80),
        });
        let prop = PropagationModel::free_space();
        run_differential(prop, positions, &tape, g.any_u64(), &mut Tally::default())
    });
}
