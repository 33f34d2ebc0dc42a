//! The studies' tables: one list of rows, rendered both as the
//! document's array of objects and as the printed table, so a value is
//! written once.

use crate::Json;

/// One column: the row member's key in the document, its header in the
/// text and a `format!`-like spec for its text cells — `<` or `>` and a
/// width, then `.P` (decimals of a float), then a suffix printed after
/// the value within the width (`KiB` prints a byte count in KiB). A
/// spec opening with `/` joins the cell to the previous one with `/`
/// and shares that one's header.
pub(super) type Col<'a> = (&'a str, &'a str, &'a str);

/// Rows of values, one per column, under `cols`.
pub(super) struct Table<'a> {
    pub cols: &'a [Col<'a>],
    pub rows: Vec<Vec<Json>>,
}

impl Table<'_> {
    /// The rows as the document has them: an array of objects.
    pub fn json(&self) -> Json {
        Json::arr(
            self.rows
                .iter()
                .map(|row| Json::obj(self.cols.iter().zip(row).map(|(col, v)| (col.0, v.clone())))),
        )
    }

    /// The header line, then one line per row.
    pub fn text(&self) -> String {
        let specs: Vec<Spec> = self.cols.iter().enumerate().map(Spec::parse).collect();
        let mut out = String::new();
        for (col, spec) in self.cols.iter().zip(&specs).filter(|(_, s)| s.sep != "/") {
            out += spec.sep;
            out += &spec.pad(col.1.to_string());
        }
        for row in &self.rows {
            out.push('\n');
            for (spec, v) in specs.iter().zip(row) {
                let cell = match (v, spec.prec) {
                    (Json::F64(x), Some(p)) => format!("{x:.p$}"),
                    (Json::F64(x), None) => x.to_string(),
                    (Json::U64(n), _) if spec.suffix == "KiB" => (n >> 10).to_string(),
                    (Json::Str(s), _) => s.clone(),
                    _ => v.render(),
                };
                out += spec.sep;
                out += &spec.pad(cell + spec.suffix);
            }
        }
        out.push('\n');
        out
    }
}

/// A column's spec, parsed.
struct Spec<'a> {
    /// What goes before the cell: nothing first, `/` when joined, else
    /// a space.
    sep: &'static str,
    left: bool,
    width: usize,
    prec: Option<usize>,
    suffix: &'a str,
}

impl<'a> Spec<'a> {
    fn parse((i, col): (usize, &Col<'a>)) -> Spec<'a> {
        let (sep, spec) = match col.2.strip_prefix('/') {
            Some(spec) => ("/", spec),
            None => (if i == 0 { "" } else { " " }, col.2),
        };
        let number = |s: &'a str| {
            let rest = s.trim_start_matches(|c: char| c.is_ascii_digit());
            (s[..s.len() - rest.len()].parse().ok(), rest)
        };
        let (width, rest) = number(&spec[1..]);
        let (prec, suffix) = match rest.strip_prefix('.') {
            Some(p) => number(p),
            None => (None, rest),
        };
        Spec {
            sep,
            left: spec.starts_with('<'),
            width: width.unwrap_or(0),
            prec,
            suffix,
        }
    }

    fn pad(&self, text: String) -> String {
        let width = self.width;
        if self.left {
            format!("{text:<width$}")
        } else {
            format!("{text:>width$}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_row_renders_as_an_object_and_as_a_line() {
        let cols = [
            ("aggregators", "combo", "<10_1round"),
            ("gb_s", "BW [GB/s]", ">10.2"),
            ("pct", "kept", ">7.1%"),
            ("buf", "buffer", ">8KiB"),
            ("even", "even/aligned", ">3"),
            ("aligned", "", "/<3"),
        ];
        let table = Table {
            cols: &cols,
            rows: vec![vec![
                Json::U64(8),
                Json::F64(1.625),
                Json::F64(92.75),
                Json::U64(512 << 10),
                Json::U64(7),
                Json::U64(0),
            ]],
        };
        assert_eq!(
            table.json().render(),
            r#"[{"aggregators":8,"gb_s":1.625,"pct":92.75,"buf":524288,"even":7,"aligned":0}]"#
        );
        let want = format!(
            "{:<10} {:>10} {:>7} {:>8} {:>3}\n{:<10} {:>10.2} {:>6.1}% {:>5}KiB {:>3}/{:<3}\n",
            "combo",
            "BW [GB/s]",
            "kept",
            "buffer",
            "even/aligned",
            "8_1round",
            1.625,
            92.75,
            512,
            7,
            0
        );
        assert_eq!(table.text(), want);
    }
}
