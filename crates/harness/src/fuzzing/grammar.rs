//! Grammar fuzzing for the spec-line parser.
//!
//! The round-trip tests only ever feed [`ScenarioSpec::parse_spec_line`]
//! lines that [`ScenarioSpec::to_spec_line`] produced; this module feeds
//! it *mutated* lines — the kind a human pastes into a terminal after an
//! editor, a CI log, or a wrapping email has chewed on them. Each mutant
//! starts from a valid line drawn by [`ScenarioSpec::arbitrary`] and
//! applies one or two seeded mutations: field deletion or duplication,
//! value bit-flips, truncation, separator injection, unknown keys,
//! numeric overflow strings, and field reordering.
//!
//! The contract under test ([`check_mutant_line`]): the parser never
//! panics, never silently accepts garbage it cannot faithfully
//! re-format, and every rejection is a *named-key* error (it contains
//! ``field `…` `` pointing at the offending key or token). Mutants that
//! remain legal — a deleted defaultable field, a duplicated key where
//! last-wins, reordered fields — must re-format to a fixed point,
//! `format ∘ parse ∘ format = format`, and must describe a run that can
//! start: the fabric builds and the fault plan resolves against it, so a
//! line the parser takes does not go on to panic in `Network::new` or
//! `install_faults`.

use super::{shrink_to_minimal_with, SplitMix64};
use crate::scenario::ScenarioSpec;

/// One seeded mutation applied to `line`.
fn apply_mutation(rng: &mut SplitMix64, line: &str) -> String {
    let join = |fields: Vec<String>| fields.join(" ");
    let fields = || -> Vec<String> { line.split_whitespace().map(str::to_string).collect() };
    match rng.below(8) {
        // Delete a field: required fields missing, defaultable fields legal.
        0 => {
            let mut f = fields();
            if !f.is_empty() {
                let i = rng.below(f.len() as u64) as usize;
                f.remove(i);
            }
            join(f)
        }
        // Duplicate a field somewhere else in the line (last one wins on
        // parse, so this must stay accepted and re-format canonically).
        1 => {
            let mut f = fields();
            if !f.is_empty() {
                let i = rng.below(f.len() as u64) as usize;
                let dup = f[i].clone();
                let j = rng.below(f.len() as u64 + 1) as usize;
                f.insert(j, dup);
            }
            join(f)
        }
        // Flip one bit of one byte (repaired lossily if it breaks UTF-8).
        2 => {
            let mut bytes = line.as_bytes().to_vec();
            if !bytes.is_empty() {
                let i = rng.below(bytes.len() as u64) as usize;
                bytes[i] ^= 1 << rng.below(8);
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
        // Truncate at a random (char-safe) point.
        3 => {
            let mut cut = rng.below(line.len() as u64 + 1) as usize;
            while cut < line.len() && !line.is_char_boundary(cut) {
                cut -= 1;
            }
            line[..cut].to_string()
        }
        // Inject a separator where it does not belong.
        4 => {
            let mut bytes = line.as_bytes().to_vec();
            if !bytes.is_empty() {
                let i = rng.below(bytes.len() as u64) as usize;
                bytes[i] = b" =:,"[rng.below(4) as usize];
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
        // Unknown keys: append a made-up field, or misspell a real key.
        5 => {
            if rng.chance(1, 2) {
                format!("{line} zz={}", rng.below(1_000))
            } else {
                let mut f = fields();
                if !f.is_empty() {
                    let i = rng.below(f.len() as u64) as usize;
                    f[i] = format!("q{}", f[i]);
                }
                join(f)
            }
        }
        // Numeric overflow strings in a random field's value.
        6 => {
            let mut f = fields();
            if !f.is_empty() {
                let i = rng.below(f.len() as u64) as usize;
                if let Some((key, _)) = f[i].split_once('=') {
                    let huge = ["18446744073709551616", "999999999999999999999999999", "1e999"]
                        [rng.below(3) as usize];
                    f[i] = format!("{key}={huge}");
                }
            }
            join(f)
        }
        // Reorder two fields (field order must not matter).
        _ => {
            let mut f = fields();
            if f.len() >= 2 {
                let i = rng.below(f.len() as u64) as usize;
                let j = rng.below(f.len() as u64) as usize;
                f.swap(i, j);
            }
            join(f)
        }
    }
}

/// A seeded mutant spec line: a valid [`ScenarioSpec::arbitrary`] line
/// with one or two mutations applied. Deterministic in `seed`.
pub fn mutate_spec_line(seed: u64) -> String {
    let mut rng = SplitMix64::new(seed);
    let mut line = ScenarioSpec::arbitrary(rng.next_u64()).to_spec_line();
    for _ in 0..rng.range(1, 2) {
        line = apply_mutation(&mut rng, &line);
    }
    line
}

/// The parser contract for one (possibly mangled) line: a rejection
/// must name the offending key (``field `…` `` appears in the error),
/// and an accepted line must be buildable and re-format to a fixed point.
pub fn check_mutant_line(line: &str) -> Result<(), String> {
    match ScenarioSpec::parse_spec_line(line) {
        Err(e) => {
            if e.contains("field `") {
                Ok(())
            } else {
                Err(format!("rejection does not name a field: {e}"))
            }
        }
        Ok(spec) => {
            spec.check_buildable().map_err(|e| format!("accepted mutant cannot run: {e}"))?;
            let canon = spec.to_spec_line();
            let again = ScenarioSpec::parse_spec_line(&canon).map_err(|e| {
                format!("accepted mutant re-formats to an unparseable line `{canon}`: {e}")
            })?;
            let canon2 = again.to_spec_line();
            if canon2 != canon {
                return Err(format!("re-formatting is not a fixed point: `{canon}` vs `{canon2}`"));
            }
            Ok(())
        }
    }
}

/// [`check_mutant_line`] with parser panics converted into `Err`, so
/// "never panics" is checkable (and shrinkable) like any other failure.
pub fn check_mutant_line_caught(line: &str) -> Result<(), String> {
    super::catch_panic(|| check_mutant_line(line))
        .unwrap_or_else(|msg| Err(format!("parser panicked: {msg}")))
}

/// Candidate simplifications of a failing line: drop each field, then
/// drop each character. Every candidate is strictly shorter, so greedy
/// shrinking always terminates.
pub fn shrink_line(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let fields: Vec<&str> = line.split_whitespace().collect();
    if fields.len() > 1 {
        for i in 0..fields.len() {
            let mut f = fields.clone();
            f.remove(i);
            out.push(f.join(" "));
        }
    }
    for (i, c) in line.char_indices() {
        let mut s = String::with_capacity(line.len() - c.len_utf8());
        s.push_str(&line[..i]);
        s.push_str(&line[i + c.len_utf8()..]);
        out.push(s);
    }
    out
}

/// Greedily shrink a failing line while `fails` keeps returning true;
/// the line instantiation of
/// [`shrink_to_minimal_with`].
pub fn shrink_line_to_minimal(line: &str, fails: impl FnMut(&String) -> bool) -> String {
    shrink_to_minimal_with(&line.to_string(), |l| shrink_line(l), fails)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutants_are_deterministic() {
        for seed in 0..100 {
            assert_eq!(mutate_spec_line(seed), mutate_spec_line(seed), "seed {seed}");
        }
    }

    #[test]
    fn mutation_classes_all_reachable() {
        // Across a modest seed range we must see both rejected and
        // accepted mutants, and at least one mutant differing from its
        // base line.
        let mut rejected = 0;
        let mut accepted = 0;
        for seed in 0..300 {
            let line = mutate_spec_line(seed);
            match ScenarioSpec::parse_spec_line(&line) {
                Ok(_) => accepted += 1,
                Err(_) => rejected += 1,
            }
        }
        assert!(rejected > 60, "only {rejected}/300 mutants rejected");
        assert!(accepted > 30, "only {accepted}/300 mutants accepted");
    }

    #[test]
    fn parser_contract_holds_on_early_seeds() {
        for seed in 0..300 {
            let line = mutate_spec_line(seed);
            if let Err(e) = check_mutant_line_caught(&line) {
                panic!("seed {seed} (`{line}`) broke the parser contract: {e}");
            }
        }
    }

    #[test]
    fn hand_written_rejections_name_their_field() {
        for bad in [
            "",
            "name=x",
            "zz=1",
            "name=x fabric=ss4 wl=w4 load=0.5 msgs=10 seed=1 color=red",
            "name=x fabric=ss4 wl=w9 load=0.5 msgs=10 seed=1",
            "name=x fabric=ss4 wl=w4 load=0.5 msgs=18446744073709551616 seed=1",
            "notafield",
            // Shrunk fuzzer find (seed 68908): used to panic in
            // `VictimSpec::new` on a self-addressed victim flow.
            "traffic=uniform+victim:6:6:4:3",
        ] {
            let err = ScenarioSpec::parse_spec_line(bad).expect_err("must reject");
            assert!(err.contains("field `"), "`{bad}`: unnamed rejection: {err}");
        }
    }

    #[test]
    fn shrink_line_candidates_are_strictly_shorter() {
        let line = mutate_spec_line(7);
        for cand in shrink_line(&line) {
            assert!(cand.len() < line.len(), "`{cand}` not shorter than `{line}`");
        }
    }

    #[test]
    fn shrinks_a_failing_line_to_a_local_minimum() {
        // Predicate: the parser rejects the line (any line with an
        // unparseable token keeps failing as we strip the rest away).
        let line = "name=x fabric=ss4 wl=w4 load=0.5 msgs=10 seed=1 zz=1";
        let fails = |l: &String| ScenarioSpec::parse_spec_line(l).is_err();
        let minimal = shrink_line_to_minimal(line, fails);
        assert!(
            ScenarioSpec::parse_spec_line(&minimal).is_err(),
            "shrunk line `{minimal}` no longer fails"
        );
        for cand in shrink_line(&minimal) {
            assert!(
                ScenarioSpec::parse_spec_line(&cand).is_ok(),
                "`{minimal}` not minimal: `{cand}` still fails"
            );
        }
        // The empty line is rejected (missing required fields), so the
        // minimum here is literally empty.
        assert_eq!(minimal, "");
    }
}
