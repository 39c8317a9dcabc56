//! History must not show in the substrate: what the scheduler keeps
//! between runs is bounded by the runs it just did, not by everything
//! it has ever processed.

use reopt_datalog::value::ints;
use reopt_datalog::{Dataflow, Distinct};

/// One huge batch, then ten thousand small batches of tuples never seen
/// before. The consolidator's table must follow the batches down: after
/// the small runs it holds a small multiple of a small batch, however
/// many tuples went through it. (An index that remembers every tuple it
/// has coalesced holds 130 000 entries here.)
#[test]
fn the_consolidator_is_bounded_by_recent_batches_not_by_history() {
    const HUGE: i64 = 50_000;
    const SMALL: i64 = 8;
    let mut df = Dataflow::new();
    let input = df.add_input("r");
    let distinct = df.add_op(Distinct::new(), &[input]);
    let sink = df.add_sink(distinct);

    for i in 0..HUGE {
        df.insert(input, ints(&[i]));
    }
    df.run().unwrap();
    let inflated = df.consolidator_footprint();
    assert_eq!(inflated.entries, HUGE as usize);
    assert!(inflated.capacity >= HUGE as usize, "{inflated:?}");

    let mut next = HUGE;
    for round in 0..10_000 {
        for _ in 0..SMALL {
            df.insert(input, ints(&[next]));
            next += 1;
        }
        df.run().unwrap();
        let now = df.consolidator_footprint();
        assert!(
            now.entries <= SMALL as usize && now.capacity <= 16 * SMALL as usize,
            "round {round}: {now:?} after batches of {SMALL}"
        );
    }
    assert_eq!(df.sink(sink).len(), next as usize);
}
