//! Protocol-trace assertions: the wire sequences behind the paper's
//! figures, checked label by label.

use mage::attribute::{Grev, MobileAgent, Rpc};
use mage::sim::TraceEvent;
use mage::workload_support::{methods, test_object_class};
use mage::{ObjectSpec, Runtime, Visibility};

fn wire_labels(rt: &Runtime) -> Vec<String> {
    rt.world()
        .trace()
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Send { from, label, .. } if !from.is_driver() => Some(label.clone()),
            _ => None,
        })
        .collect()
}

#[test]
fn figure7_grev_protocol_message_sequence() {
    let mut rt = Runtime::builder()
        .fast()
        .nodes(["GREV", "Y", "Z"])
        .class(test_object_class())
        .trace(true)
        .build();
    rt.deploy_class("TestObject", "Y").unwrap();
    rt.session("Y")
        .unwrap()
        .create(ObjectSpec::new("C").class("TestObject"))
        .unwrap();
    // Warm the class at Z so the measured run is the paper's exact diagram
    // (the paper elides class transfer).
    rt.deploy_class("TestObject", "Z").unwrap();
    rt.world_mut().trace_mut().clear();

    let grev = rt.session("GREV").unwrap();
    let attr = Grev::new("TestObject", "C", "Z");
    let (_stub, _r) = grev.bind_invoke(&attr, methods::INC, &()).unwrap();
    let labels = wire_labels(&rt);
    assert_eq!(
        labels,
        vec![
            "call:mage.act".to_owned(), // 1-3 — locate C and ask its host to move it to Z
            "call:mage.receive".to_owned(), // 4 — Y transfers C to Z, with the invocation (6)
            "rsp:ok".to_owned(),        //     (Z acks the transfer with the result, 7)
            "rsp:ok".to_owned(),        // 5 — Y informs GREV, result included
        ],
        "GREV protocol must match Figure 7"
    );
}

#[test]
fn figure1a_rpc_is_one_round_trip() {
    let mut rt = Runtime::builder()
        .fast()
        .nodes(["A", "B"])
        .class(test_object_class())
        .trace(true)
        .build();
    rt.deploy_class("TestObject", "B").unwrap();
    rt.session("B")
        .unwrap()
        .create(
            ObjectSpec::new("C")
                .class("TestObject")
                .visibility(Visibility::Private),
        )
        .unwrap();
    let a = rt.session("A").unwrap();
    let attr = Rpc::new("TestObject", "C", "B");
    rt.world_mut().trace_mut().clear();
    let (_s, _r) = a.bind_invoke(&attr, methods::INC, &()).unwrap();
    let labels = wire_labels(&rt);
    assert_eq!(
        labels,
        vec!["call:mage.invoke".to_owned(), "rsp:ok".to_owned()]
    );
}

#[test]
fn figure1d_mobile_agent_sends_no_result_message() {
    let mut rt = Runtime::builder()
        .fast()
        .nodes(["A", "B"])
        .class(test_object_class())
        .trace(true)
        .build();
    rt.deploy_class("TestObject", "A").unwrap();
    rt.deploy_class("TestObject", "B").unwrap();
    let a = rt.session("A").unwrap();
    a.create(ObjectSpec::new("C").class("TestObject")).unwrap();
    rt.world_mut().trace_mut().clear();
    let attr = MobileAgent::new("TestObject", "C", "B");
    let (_s, r) = a.bind_invoke(&attr, methods::INC, &()).unwrap();
    assert_eq!(r, None);
    // The transfer carries the one-way invocation, which B runs on
    // arrival; B's acknowledgement of the transfer carries no result, and
    // no invoke request follows.
    let labels = wire_labels(&rt);
    assert_eq!(labels, ["call:mage.receive", "rsp:ok"]);
}

#[test]
fn class_transfer_happens_once_then_caches() {
    // "Caching class definitions ... can speed up object migration" (§4.2).
    let mut rt = Runtime::builder()
        .fast()
        .nodes(["a", "b"])
        .class(test_object_class())
        .trace(true)
        .build();
    rt.deploy_class("TestObject", "a").unwrap();
    let a = rt.session("a").unwrap();
    a.create(ObjectSpec::new("x").class("TestObject")).unwrap();
    let there = Grev::new("TestObject", "x", "b");
    let back = Grev::new("TestObject", "x", "a");
    for _ in 0..3 {
        a.bind(&there).unwrap();
        a.bind(&back).unwrap();
    }
    let class_pushes = rt
        .world()
        .trace()
        .sends_with_label("call:mage.receiveClass");
    assert_eq!(class_pushes, 1, "class moves once, objects move six times");
    let receives = rt.world().trace().sends_with_label("call:mage.receive");
    assert_eq!(
        receives, 7,
        "six committed transfers plus the retried first"
    );
}
