//! Regenerates Figure 7: the GREV protocol. The paper numbers seven
//! messages: (1,2) the registry consult locating C, (3) the move request
//! to the hosting namespace Y, (4) the object transfer to Z, (5) the ack
//! back to the client, (6) the invocation and (7) its result. Here 1-3
//! are one `act` request: it goes to where the client's registry says C
//! is, would walk on along the forwarding chain if C had left, and asks
//! C's host to move it. 4 carries the object state and the invocation,
//! which Z runs on arrival; Z's acknowledgement carries the result, and
//! 5 brings it to the client, so 6 and 7 ride in 4 and 5.

use mage_core::attribute::Grev;
use mage_core::workload_support::{methods, test_object_class};
use mage_core::{ObjectSpec, Runtime};

fn main() {
    mage_bench::banner("Figure 7 — The GREV Protocol");
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
    rt.world_mut().trace_mut().clear();
    let attr = Grev::new("TestObject", "C", "Z");
    let (_s, result) = rt
        .session("GREV")
        .unwrap()
        .bind_invoke(&attr, methods::INC, &())
        .unwrap();
    print!("{}", rt.trace_rendered());
    println!("(paper numbering: 1-3 = one act request, which locates C and asks");
    println!(" its host Y to move it, 4 = receive/transfer carrying the invocation (6),");
    println!(" 5 = act reply carrying the result (7); the class push and receive ack");
    println!(" are elided in the paper)");
    println!("(result delivered to GREV: {result:?})");
}
