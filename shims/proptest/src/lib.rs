//! Offline stand-in for `proptest`.
//!
//! The build environment has no crates.io access, so this crate
//! reimplements the slice of proptest this workspace uses: the
//! [`proptest!`] macro, `prop_assert*`/`prop_assume!`/[`prop_oneof!`],
//! [`strategy::Strategy`] with `prop_map`, ranges/tuples/`Just` as
//! strategies, [`arbitrary::any`], [`collection::vec`], and
//! [`option::of`].
//!
//! Differences from the real crate, deliberately accepted:
//!
//! * **No shrinking.** A failing case reports its inputs (via the
//!   assertion message) but is not minimized.
//! * **Fixed deterministic seeding.** Each test's RNG is seeded from a
//!   hash of its module path and name, so failures reproduce across
//!   runs; there is no persistence file.
//! * **Case count** defaults to 64 and can be raised with the
//!   `PROPTEST_CASES` environment variable (same knob as the real
//!   crate).
//!
//! Integer ranges bias ~1/8 of draws to the range's endpoints, which
//! recovers some of the edge-case pressure that shrinking would
//! otherwise provide.

#![forbid(unsafe_code)]

pub mod arbitrary;
pub mod collection;
pub mod option;
pub mod strategy;
pub mod test_runner;

/// Number of cases each property runs (`PROPTEST_CASES` overrides).
pub fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(64)
}

/// The glob-imported names used by property tests.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Define property tests. Each function's arguments are drawn from the
/// given strategies for [`cases()`] iterations.
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$attr:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
    )*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let mut __rng = $crate::test_runner::TestRng::from_name(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                let __cases = $crate::cases();
                for __case in 0..__cases {
                    $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)*
                    let __result: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                        (move || {
                            $body
                            ::core::result::Result::Ok(())
                        })();
                    if let ::core::result::Result::Err(e) = __result {
                        panic!(
                            "proptest `{}` failed at case {}/{}: {}",
                            stringify!($name),
                            __case + 1,
                            __cases,
                            e
                        );
                    }
                }
            }
        )*
    };
}

/// Assert a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Assert equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&($left), &($right)) {
            (l, r) => {
                $crate::prop_assert!(*l == *r, "assertion failed: `{:?} == {:?}`", l, r)
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&($left), &($right)) {
            (l, r) => $crate::prop_assert!(*l == *r, $($fmt)+),
        }
    };
}

/// Assert inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&($left), &($right)) {
            (l, r) => {
                $crate::prop_assert!(*l != *r, "assertion failed: `{:?} != {:?}`", l, r)
            }
        }
    };
}

/// Discard the current case unless a precondition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            // Discarded case: treated as a (vacuous) pass.
            return ::core::result::Result::Ok(());
        }
    };
}

/// Choose uniformly between several strategies with the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(
                ::std::boxed::Box::new(move |rng: &mut $crate::test_runner::TestRng| {
                    $crate::strategy::Strategy::sample(&($strat), rng)
                }) as ::std::boxed::Box<dyn Fn(&mut $crate::test_runner::TestRng) -> _>
            ),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, y in 0.0f64..1.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((0.0..1.0).contains(&y));
        }

        #[test]
        fn tuples_and_maps(pair in (0u32..10, 0u32..10).prop_map(|(a, b)| a + b)) {
            prop_assert!(pair < 20);
        }

        #[test]
        fn vec_lengths_respected(v in crate::collection::vec(0u8..5, 2..9)) {
            prop_assert!(v.len() >= 2 && v.len() < 9);
            prop_assert!(v.iter().all(|&x| x < 5));
        }

        #[test]
        fn oneof_hits_all_arms(v in prop_oneof![Just(1u8), Just(2u8), Just(3u8)]) {
            prop_assert!((1u8..=3).contains(&v));
        }

        #[test]
        fn option_of_mixes(o in crate::option::of(0u8..4)) {
            if let Some(v) = o {
                prop_assert!(v < 4);
            }
        }

        #[test]
        fn assume_discards(n in 0u32..100) {
            prop_assume!(n % 2 == 0);
            prop_assert!(n % 2 == 0);
        }
    }

    // Known answers about the macro itself: if it ran fewer cases than it
    // claims, or swallowed a failing case, every property test in the
    // workspace would pass vacuously.
    static RUNS: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

    proptest! {
        fn counts_its_cases(x in 0u8..4) {
            prop_assert!(x < 4);
            RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }

        fn claims_seven_is_a_thousand(x in 7u64..8) {
            prop_assert_eq!(x, 1000);
        }
    }

    #[test]
    fn a_property_runs_exactly_cases_times() {
        counts_its_cases();
        assert_eq!(RUNS.load(std::sync::atomic::Ordering::Relaxed), crate::cases());
    }

    #[test]
    fn a_false_property_fails_on_its_first_case_and_reports_its_inputs() {
        let payload = std::panic::catch_unwind(claims_seven_is_a_thousand)
            .expect_err("a false property must fail");
        let msg = payload.downcast_ref::<String>().expect("panic carries a message");
        assert_eq!(
            *msg,
            format!(
                "proptest `claims_seven_is_a_thousand` failed at case 1/{}: \
                 assertion failed: `7 == 1000`",
                crate::cases()
            )
        );
    }

    #[test]
    fn endpoint_bias_hits_bounds() {
        let mut rng = crate::test_runner::TestRng::from_name("bias");
        let strat = 5u64..50;
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..1_000 {
            match Strategy::sample(&strat, &mut rng) {
                5 => lo_seen = true,
                49 => hi_seen = true,
                v => assert!((5..50).contains(&v)),
            }
        }
        assert!(lo_seen && hi_seen, "endpoint bias should hit both bounds");
    }
}
