//! What the virtual-time suites share: the latency percentile, the
//! elastic fabric they run on, and the JSON writer their
//! `BENCH_<suite>.json` documents are rendered with.
//!
//! The writer is hand-rolled (the offline workspace has no serde) and
//! deliberately tiny: objects print one field per line, arrays of
//! objects print one object per line (each object on that line in
//! compact `{"k": v, ...}` form), and every float is printed with the
//! fixed precision its field declares, so two identical runs render
//! byte-identical documents.

use std::fmt::{Display, Write as _};

use flock_fabric::FabricConfig;

/// Nearest-rank percentile of ascending latencies (ns), in µs; 0 for
/// an empty slice.
pub fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx] as f64 / 1000.0
}

/// The elastic control plane under test: QP pool and MR cache at their
/// working capacities (a released QP or ring is recycled, not torn
/// down), over `nic_lanes` NIC lanes per node.
pub fn elastic_fabric(nic_lanes: usize) -> FabricConfig {
    let mut fc = FabricConfig::default();
    fc.qpool.capacity = 1024;
    fc.mr_cache.capacity = 4096;
    fc.nic_lanes = nic_lanes;
    fc
}

/// A JSON value as the writer lays it out.
#[derive(Debug, Clone)]
enum Value {
    /// A scalar (or scalar list) already rendered.
    Lit(String),
    /// A nested object.
    Obj(Obj),
    /// An array of objects.
    Rows(Vec<Obj>),
}

/// A JSON object with fields in insertion order, built by chaining.
#[derive(Debug, Clone, Default)]
pub struct Obj(Vec<(&'static str, Value)>);

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// The document header every suite starts with: its schema tag,
    /// whether this is the quick preset, and the executor.
    pub fn doc(schema: &str, quick: bool) -> Obj {
        Obj::new()
            .str("schema", schema)
            .int("quick", quick)
            .str("executor", "virtual")
    }

    fn lit(mut self, key: &'static str, v: String) -> Obj {
        self.0.push((key, Value::Lit(v)));
        self
    }

    /// An integer (or boolean) field.
    pub fn int(self, key: &'static str, v: impl Display) -> Obj {
        self.lit(key, v.to_string())
    }

    /// A float field printed with `prec` decimals.
    pub fn float(self, key: &'static str, v: f64, prec: usize) -> Obj {
        self.lit(key, format!("{v:.prec$}"))
    }

    /// A list of floats printed with `prec` decimals, on one line.
    pub fn floats(self, key: &'static str, vs: &[f64], prec: usize) -> Obj {
        let items: Vec<String> = vs.iter().map(|v| format!("{v:.prec$}")).collect();
        self.lit(key, format!("[{}]", items.join(", ")))
    }

    /// A string field (no escaping: keys and values are identifiers).
    pub fn str(self, key: &'static str, v: &str) -> Obj {
        self.lit(key, format!("\"{v}\""))
    }

    /// A nested object field.
    pub fn obj(mut self, key: &'static str, v: Obj) -> Obj {
        self.0.push((key, Value::Obj(v)));
        self
    }

    /// An array-of-objects field.
    pub fn rows(mut self, key: &'static str, rows: impl IntoIterator<Item = Obj>) -> Obj {
        self.0.push((key, Value::Rows(rows.into_iter().collect())));
        self
    }

    /// The object as a document: one field per line, newline-terminated.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.block(&mut out, 0);
        out.push('\n');
        out
    }

    fn block(&self, out: &mut String, depth: usize) {
        out.push('{');
        for (i, (key, v)) in self.0.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            indent(out, depth + 1);
            let _ = write!(out, "\"{key}\": ");
            match v {
                Value::Lit(s) => out.push_str(s),
                Value::Obj(o) => o.block(out, depth + 1),
                Value::Rows(rows) => {
                    out.push('[');
                    for (k, row) in rows.iter().enumerate() {
                        out.push_str(if k == 0 { "\n" } else { ",\n" });
                        indent(out, depth + 2);
                        row.line(out);
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    out.push(']');
                }
            }
        }
        out.push('\n');
        indent(out, depth);
        out.push('}');
    }

    fn line(&self, out: &mut String) {
        out.push('{');
        for (i, (key, v)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{key}\": ");
            match v {
                Value::Lit(s) => out.push_str(s),
                Value::Obj(o) => o.line(out),
                Value::Rows(rows) => {
                    out.push('[');
                    for (k, row) in rows.iter().enumerate() {
                        if k > 0 {
                            out.push_str(", ");
                        }
                        row.line(out);
                    }
                    out.push(']');
                }
            }
        }
        out.push('}');
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_empty_is_zero() {
        assert_eq!(percentile_us(&[], 0.5), 0.0);
        assert_eq!(percentile_us(&[], 0.99), 0.0);
    }

    #[test]
    fn percentile_of_one_sample_is_that_sample() {
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile_us(&[2_500], p), 2.5);
        }
    }

    #[test]
    fn percentile_rounds_to_the_nearest_rank() {
        // Three samples: rank = 2p, rounded half away from zero.
        let ns = [1_000, 2_000, 3_000];
        assert_eq!(percentile_us(&ns, 0.24), 1.0); // rank 0.48 -> 0
        assert_eq!(percentile_us(&ns, 0.25), 2.0); // rank 0.50 -> 1
        assert_eq!(percentile_us(&ns, 0.74), 2.0); // rank 1.48 -> 1
        assert_eq!(percentile_us(&ns, 0.75), 3.0); // rank 1.50 -> 2
    }

    #[test]
    fn nested_objects_put_commas_between_fields_only() {
        let doc = Obj::doc("s/v1", true)
            .obj("a", Obj::new().int("x", 1).float("y", 0.5, 3))
            .obj("b", Obj::new().int("z", 2))
            .int("n", 3);
        assert_eq!(
            doc.render(),
            "{\n  \"schema\": \"s/v1\",\n  \"quick\": true,\n  \"executor\": \"virtual\",\n  \
             \"a\": {\n    \"x\": 1,\n    \"y\": 0.500\n  },\n  \"b\": {\n    \"z\": 2\n  },\n  \
             \"n\": 3\n}\n"
        );
    }

    #[test]
    fn rows_are_one_line_each_with_inline_nesting() {
        let row = |c: u32| {
            Obj::new().int("c", c).rows(
                "s",
                [Obj::new().float("v", 1.24, 1), Obj::new().str("m", "rpc")],
            )
        };
        let doc = Obj::new()
            .rows("points", [row(1), row(2)])
            .floats("gaps", &[4000.0, 2000.0], 0);
        assert_eq!(
            doc.render(),
            "{\n  \"points\": [\n    {\"c\": 1, \"s\": [{\"v\": 1.2}, {\"m\": \"rpc\"}]},\n    \
             {\"c\": 2, \"s\": [{\"v\": 1.2}, {\"m\": \"rpc\"}]}\n  ],\n  \
             \"gaps\": [4000, 2000]\n}\n"
        );
    }

    #[test]
    fn empty_rows_close_on_their_own_line() {
        assert_eq!(
            Obj::new().rows("points", []).render(),
            "{\n  \"points\": [\n  ]\n}\n"
        );
    }
}
