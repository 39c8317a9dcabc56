//! Interner exhaustion lives in its own test binary: the capacity
//! override is process-global, and starving the id space would make
//! unrelated tests sharing the interner abort. Keep this the only test
//! here.

use reopt_datalog::{set_intern_capacity, DataflowError, Sym};

/// Id exhaustion surfaces as `StateCorruption` — routable to the
/// bridge's rebuild like any other error — never a process abort, and
/// already interned symbols keep resolving.
#[test]
fn interner_exhaustion_is_corruption_not_abort() {
    let seed = Sym::intern("cap-test-seed");
    // Leave room for exactly one more fresh symbol.
    let cap = seed.id() + 2;
    let prev = set_intern_capacity(cap);
    let fits = Sym::try_intern("cap-test-fits").expect("one id left");
    assert_eq!(fits.id() + 1, cap);
    // Known strings stay internable at full capacity (no new id needed).
    assert_eq!(Sym::try_intern("cap-test-seed").unwrap(), seed);
    assert_eq!(&*fits.resolve(), "cap-test-fits");
    let err = Sym::try_intern("cap-test-overflows").unwrap_err();
    assert!(
        matches!(err, DataflowError::StateCorruption(_)),
        "expected StateCorruption, got: {err}"
    );
    set_intern_capacity(prev);
    // Nothing was poisoned: with the ceiling lifted the same string
    // interns normally.
    let late = Sym::try_intern("cap-test-overflows").unwrap();
    assert_eq!(&*late.resolve(), "cap-test-overflows");
}
