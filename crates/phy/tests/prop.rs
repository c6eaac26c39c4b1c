//! Property-based tests for the PHY: propagation laws and medium
//! bookkeeping invariants under random transmission schedules
//! (mg-testkit harness).

use mg_geom::Vec2;
use mg_phy::{
    dbm_to_mw, mw_to_dbm, EdgeChange, EndedTx, Medium, PropagationModel, RadioParams, RxOutcome,
    TxId,
};
use mg_sim::rng::Xoshiro256;
use mg_sim::SimTime;
use mg_testkit::prop::{check, Gen, TkResult};
use mg_testkit::{tk_assert, tk_assert_eq};

/// Starts a transmission, returning its id and the busy edges it causes.
fn begin(
    m: &mut Medium,
    src: usize,
    now: SimTime,
    rng: &mut Xoshiro256,
) -> (TxId, Vec<EdgeChange>) {
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

/// dBm/mW conversions are inverse bijections on the sane range.
#[test]
fn power_conversions_roundtrip() {
    check("power_conversions_roundtrip", |g: &mut Gen| -> TkResult {
        let dbm = g.f64_in(-150.0..60.0);
        tk_assert!((mw_to_dbm(dbm_to_mw(dbm)) - dbm).abs() < 1e-9);
        Ok(())
    });
}

/// Path loss is monotone non-decreasing in distance for every model.
#[test]
fn path_loss_monotone() {
    check("path_loss_monotone", |g: &mut Gen| -> TkResult {
        let d1 = g.f64_in(0.0..3000.0);
        let d2 = g.f64_in(0.0..3000.0);
        let beta = g.f64_in(1.5..5.0);
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        for model in [
            PropagationModel::FreeSpace,
            PropagationModel::TwoRayGround { ht: 1.5, hr: 1.5 },
            PropagationModel::shadowing(beta, 0.0),
        ] {
            tk_assert!(
                model.mean_path_loss_db(lo) <= model.mean_path_loss_db(hi) + 1e-9,
                "{model:?}"
            );
        }
        Ok(())
    });
}

/// Calibration puts the decode boundary exactly at the requested range.
#[test]
fn calibration_boundary() {
    check("calibration_boundary", |g: &mut Gen| -> TkResult {
        let tx_range = g.f64_in(50.0..500.0);
        let margin = g.f64_in(1.01..2.0);
        let prop_model = PropagationModel::free_space();
        let cs_range = tx_range * margin * 1.5;
        let r = RadioParams::calibrated(&prop_model, tx_range, cs_range);
        let p_in = r.rx_power_dbm(prop_model.mean_path_loss_db(tx_range / margin));
        let p_out = r.rx_power_dbm(prop_model.mean_path_loss_db(tx_range * margin));
        tk_assert!(r.decodable(p_in));
        tk_assert!(!r.decodable(p_out));
        Ok(())
    });
}

/// Medium bookkeeping: after an arbitrary schedule of begin/end pairs,
/// all carrier-sense counters return to idle and every outcome vector is
/// complete and self-consistent.
#[test]
fn medium_returns_to_quiescence() {
    check("medium_returns_to_quiescence", |g: &mut Gen| -> TkResult {
        let positions = g.vec(2..12, |g| (g.f64_in(0.0..2000.0), g.f64_in(0.0..2000.0)));
        let tx_plan = g.vec(1..20, |g| (g.usize_in(0..12), g.u64_in(1..50)));
        let seed = g.any_u64();
        let n = positions.len();
        let prop_model = PropagationModel::free_space();
        let radio = RadioParams::paper_default(&prop_model);
        let pts: Vec<Vec2> = positions.iter().map(|&(x, y)| Vec2::new(x, y)).collect();
        let mut medium = Medium::new(prop_model, radio, pts);
        let mut rng = Xoshiro256::new(seed);
        let mut in_flight = Vec::new();
        let mut t = 0u64;
        for &(src, gap) in &tx_plan {
            let src = src % n;
            t += gap;
            // A node cannot start a second transmission while its first is
            // still in flight: end it first.
            if medium.is_transmitting(src) {
                let idx = in_flight.iter().position(|&(_, s)| s == src).unwrap();
                let (tx, _) = in_flight.remove(idx);
                let ended = end(&mut medium, tx, SimTime::from_micros(t));
                tk_assert!(ended.receptions.len() < n, "src never covered");
            }
            let (tx, _) = begin(&mut medium, src, SimTime::from_micros(t), &mut rng);
            in_flight.push((tx, src));
        }
        for (tx, src) in in_flight {
            let ended = end(&mut medium, tx, SimTime::from_micros(t));
            tk_assert_eq!(ended.src, src);
            tk_assert!(ended.receptions.len() < n, "src never covered");
            tk_assert_eq!(ended.outcome_of(src), RxOutcome::SelfTx);
        }
        tk_assert_eq!(medium.active_count(), 0);
        for v in 0..n {
            tk_assert!(!medium.carrier_busy(v), "node {v} stuck busy");
        }
        Ok(())
    });
}

/// A single clean transmission is decoded by everyone strictly inside
/// the decode disk and unheard strictly outside the sense disk.
#[test]
fn clean_reception_by_distance() {
    check("clean_reception_by_distance", |g: &mut Gen| -> TkResult {
        let d = g.f64_in(1.0..1200.0);
        let seed = g.any_u64();
        let prop_model = PropagationModel::free_space();
        let radio = RadioParams::paper_default(&prop_model);
        let mut medium = Medium::new(prop_model, radio, vec![Vec2::ZERO, Vec2::new(d, 0.0)]);
        let mut rng = Xoshiro256::new(seed);
        let (tx, _) = begin(&mut medium, 0, SimTime::ZERO, &mut rng);
        let out = end(&mut medium, tx, SimTime::ZERO).outcome_of(1);
        if d < 249.0 {
            tk_assert_eq!(out, RxOutcome::Decoded);
        } else if d > 251.0 && d < 549.0 {
            tk_assert_eq!(out, RxOutcome::Sensed);
        } else if d > 551.0 {
            tk_assert_eq!(out, RxOutcome::OutOfRange);
        }
        Ok(())
    });
}
