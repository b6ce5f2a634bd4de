//! The WAL's bytes on disk, pinned: one frame of each transition kind,
//! header and payload, as `encode_record` wrote them before the store
//! appended `Transition` itself (it used to copy each one into a record
//! type of its own first). The round-trip tests elsewhere would pass
//! after any change of format; a WAL already on disk would not.

use std::sync::{Arc, Mutex};

use automon_autodiff::AutoDiffFn;
use automon_core::journal::{Journal, Transition};
use automon_core::{Coordinator, CoordinatorStats, MonitorConfig, MonitoredFunction, Node};
use automon_functions::Rozenbrock;
use automon_store::record::encode_record;

/// Every transition the coordinator journals, in order.
struct Capture(Arc<Mutex<Vec<Transition>>>);

impl Journal for Capture {
    fn record(&mut self, t: Transition) {
        self.0.lock().unwrap().push(t);
    }
}

/// The zone transition of Rozenbrock's first full sync over two nodes:
/// an ADCD-X zone, neighborhood box included.
fn adcd_x_zone() -> Transition {
    let f: Arc<dyn MonitoredFunction> = Arc::new(AutoDiffFn::new(Rozenbrock));
    let n = 2;
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut coord = Coordinator::new(f.clone(), n, MonitorConfig::builder(0.2).build());
    coord.set_journal(Box::new(Capture(log.clone())));
    let mut nodes: Vec<Node> = (0..n).map(|i| Node::new(i, f.clone())).collect();
    let mut queue: Vec<_> = (0..n)
        .filter_map(|i| {
            let i_f = i as f64;
            nodes[i].update_data(vec![0.25 + 0.5 * i_f, -0.75 + 0.125 * i_f])
        })
        .collect();
    while let Some(msg) = queue.pop() {
        for out in coord.handle(msg) {
            queue.extend(nodes[out.to].handle(out.msg));
        }
    }
    let log = log.lock().unwrap();
    log.iter()
        .rev()
        .find(|t| matches!(t, Transition::Zone { zone: Some(z), .. } if z.neighborhood.is_some()))
        .expect("the full sync journals an ADCD-X zone, box included")
        .clone()
}

/// `0.` then `zeros` zeros then `digit`: how the codec spells a
/// subnormal.
fn subnormal(zeros: usize, digit: char) -> String {
    format!("0.{}{digit}", "0".repeat(zeros))
}

fn assert_frame(seq: u64, t: &Transition, header: &str, payload: &str) {
    let bytes = encode_record(seq, t);
    let hex: String = bytes[..17].iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, header, "header of {t:?}");
    assert_eq!(std::str::from_utf8(&bytes[17..]).unwrap(), payload);
}

#[test]
fn a_zone_with_an_adcd_x_safe_zone() {
    assert_frame(
        10,
        &adcd_x_zone(),
        "a70a00000000000000ea000000f0c3cb72",
        concat!(
            r#"{"Zone":{"epoch":1,"r":1,"zone":{"x0":[0.5,-0.6875],"f0":88.140625,"#,
            r#""grad0":[186.5,-187.5],"l":87.940625,"u":88.340625,"dc":"ConvexDiff","#,
            r#""curvature":{"Scalar":122.9999999999751},"#,
            r#""neighborhood":{"lo":[-0.5,-1.6875],"hi":[1.5,0.3125]}}}}"#,
        ),
    );
}

#[test]
fn a_zone_without_a_safe_zone() {
    assert_frame(
        11,
        &Transition::Zone {
            epoch: 3,
            r: 0.5,
            zone: None,
        },
        "a70b00000000000000280000002e1bb614",
        r#"{"Zone":{"epoch":3,"r":0.5,"zone":null}}"#,
    );
}

#[test]
fn a_node_with_negative_zero_and_subnormals() {
    let t = Transition::Node {
        node: 1,
        x: Some(vec![-0.0, f64::from_bits(1), 2.5]),
        slack: vec![0.0, -0.0, 1e-310],
        alive: true,
        has_curvature: false,
    };
    let payload = format!(
        r#"{{"Node":{{"node":1,"x":[-0,{},2.5],"slack":[0,-0,{}],"alive":true,"has_curvature":false}}}}"#,
        subnormal(323, '5'),
        subnormal(309, '1'),
    );
    assert_frame(12, &t, "a70c00000000000000d202000078cb0a8e", &payload);
}

#[test]
fn a_control_record() {
    let t = Transition::Control {
        lru: vec![2, 0, 1],
        stats: CoordinatorStats {
            full_syncs: 3,
            lazy_syncs: 2,
            safezone_violations: 7,
            evictions: 1,
            ..Default::default()
        },
        consecutive_neighborhood: 4,
    };
    assert_frame(
        13,
        &t,
        "a70d00000000000000f000000075c6e82e",
        concat!(
            r#"{"Control":{"lru":[2,0,1],"stats":{"full_syncs":3,"lazy_syncs":2,"#,
            r#""neighborhood_violations":0,"safezone_violations":7,"faulty_reports":0,"#,
            r#""r_doublings":0,"stale_discards":0,"resyncs":0,"evictions":1,"rejoins":0},"#,
            r#""consecutive_neighborhood":4}}"#,
        ),
    );
}
