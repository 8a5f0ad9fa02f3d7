//! The `BENCH_*.json` row schema: each row struct, declared once through
//! `bench_row!`, is its own JSONL schema — `"kind"` first, then every
//! field in declaration order — and owns the pass/fail gates ([`Gated`])
//! that `experiments --bench-eN` enforces after writing the export.

use crate::report::json_escape;
use std::fmt::Write as _;
use tpnr_crypto::hash::HashAlg;

/// A field type that can appear in a bench row: appends itself as one
/// JSON value.
pub trait JsonValue {
    /// Appends `self` as a JSON value to `out`.
    fn write_json(&self, out: &mut String);
}

macro_rules! json_display {
    ($($t:ty),*) => {$(
        impl JsonValue for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
json_display!(u32, u64, usize, bool);

impl JsonValue for &str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        out.push_str(&json_escape(self));
        out.push('"');
    }
}

impl JsonValue for HashAlg {
    fn write_json(&self, out: &mut String) {
        self.name().write_json(out);
    }
}

/// Host-timed microseconds (E4), to one decimal.
impl JsonValue for f64 {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{self:.1}");
    }
}

/// One row of a `BENCH_*.json` export. Implemented by `bench_row!`.
pub trait BenchRow {
    /// The `"kind"` tag that opens every line of this row type.
    const KIND: &'static str;

    /// Calls `f` with each field's name and value, in declaration order.
    fn visit(&self, f: &mut dyn FnMut(&'static str, &dyn JsonValue));

    /// Appends the row as one JSONL line without the fields named in
    /// `skip`.
    fn write_jsonl_without(&self, skip: &[&str], out: &mut String) {
        out.push_str("{\"kind\":");
        Self::KIND.write_json(out);
        self.visit(&mut |name, value| {
            if !skip.contains(&name) {
                let _ = write!(out, ",\"{name}\":");
                value.write_json(out);
            }
        });
        out.push_str("}\n");
    }

    /// Appends the row as one JSONL line: `"kind"` first, then every field
    /// in declaration order.
    fn write_jsonl(&self, out: &mut String) {
        self.write_jsonl_without(&[], out);
    }
}

/// The checks a bench row must pass. `experiments --bench-eN` writes the
/// export first, then exits 1 naming every row and gate that failed.
pub trait Gated {
    /// Names of the gates this row fails (empty when it passes).
    fn failed_gates(&self) -> Vec<&'static str> {
        Vec::new()
    }
}

/// The names of the `(name, passed)` gates that did not pass.
pub(crate) fn failed(gates: &[(&'static str, bool)]) -> Vec<&'static str> {
    gates.iter().filter(|(_, passed)| !passed).map(|(name, _)| *name).collect()
}

/// Declares a bench row struct and implements [`BenchRow`] for it: the
/// struct is the schema, so each field name is written once.
///
/// ```text
/// bench_row! {
///     kind = "e8";
///     /// One row of the E8 chaos sweep.
///     #[derive(Debug, Clone)]
///     pub struct E8Row { pub trials: u64, pub limbo: u64 }
/// }
/// ```
macro_rules! bench_row {
    (
        kind = $kind:literal;
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty),*
        }

        impl $crate::row::BenchRow for $name {
            const KIND: &'static str = $kind;

            fn visit(&self, f: &mut dyn FnMut(&'static str, &dyn $crate::row::JsonValue)) {
                $(f(stringify!($field), &self.$field);)*
            }
        }
    };
}
pub(crate) use bench_row;

/// One `BENCH_*.json` export being assembled from one or more row types.
#[derive(Debug, Default)]
pub struct Export {
    /// The JSONL text, one line per row.
    pub jsonl: String,
    /// One message per failed gate, naming the row kind, its index among
    /// the rows of that kind, the gate and the row's line.
    pub failures: Vec<String>,
}

impl Export {
    /// Appends `rows` to the export and records every gate they fail.
    pub fn push_rows<R: BenchRow + Gated>(&mut self, rows: &[R]) {
        for (i, r) in rows.iter().enumerate() {
            let start = self.jsonl.len();
            r.write_jsonl(&mut self.jsonl);
            let (kind, line) = (R::KIND, self.jsonl[start..].trim_end());
            for gate in r.failed_gates() {
                self.failures.push(format!("{kind} row {i} failed {gate}: {line}"));
            }
        }
    }
}
