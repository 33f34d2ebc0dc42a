//! The command line, report and exit status every bench binary shares.
//!
//! * [`Cli`] — the command line, parsed once. `--smoke`, `--json`,
//!   `--out PATH`, `--check PATH`, and the seeded soaks' `--seeds N`,
//!   `--base N` and `--seed N`; anything else is positional. The worker
//!   count is `E10_JOBS` ([`e10_simcore::pool::worker_threads`]), never
//!   a flag.
//! * [`Report`] — what an experiment produced: the deterministic
//!   document, one `"host"` object of host-dependent values (wall-clock
//!   seconds, worker count), the text rendering and the gate failures.
//! * [`finish`] — writes `--out` (pretty JSON), prints the document
//!   (`--json`, one line) or the text, runs `--check`, and exits 1 on
//!   any failure. `--check PATH` requires the whole document minus
//!   `"host"` to equal `PATH` minus its `"host"` exactly — scale, grid
//!   shape and every number — and names the first difference.

use std::process::ExitCode;

use crate::{Json, Scale};

/// The parsed command line of a bench binary.
#[derive(Debug, Default)]
pub struct Cli {
    smoke: bool,
    json: bool,
    out: Option<String>,
    check: Option<String>,
    pub(crate) seeds: Option<u64>,
    pub(crate) base: Option<u64>,
    pub(crate) seed: Option<u64>,
    positional: Vec<String>,
}

impl Cli {
    /// Parse `std::env::args()`; an unknown flag or a missing or
    /// non-numeric value prints the flag list and exits 2.
    pub fn parse() -> Cli {
        let mut cli = Cli::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut value = || {
                args.next()
                    .unwrap_or_else(|| usage(&format!("{arg} needs a value")))
            };
            let number = |v: String| {
                v.parse()
                    .unwrap_or_else(|_| usage(&format!("{arg} needs a number, not {v}")))
            };
            match arg.as_str() {
                "--smoke" => cli.smoke = true,
                "--json" => cli.json = true,
                "--out" => cli.out = Some(value()),
                "--check" => cli.check = Some(value()),
                "--seeds" => cli.seeds = Some(number(value())),
                "--base" => cli.base = Some(number(value())),
                "--seed" => cli.seed = Some(number(value())),
                flag if flag.starts_with("--") => usage(&format!("unknown flag {flag}")),
                _ => cli.positional.push(arg),
            }
        }
        cli
    }

    /// The one scale rule: `--smoke` is test scale, otherwise
    /// `E10_SCALE` (`full`, `quick` or `test`), otherwise `default`.
    pub fn scale(&self, default: Scale) -> Scale {
        if self.smoke {
            return Scale::Test;
        }
        match std::env::var("E10_SCALE").as_deref() {
            Ok("full") => Scale::Full,
            Ok("quick") => Scale::Quick,
            Ok("test") => Scale::Test,
            _ => default,
        }
    }

    /// Positional argument `i` (0-based, flags skipped).
    pub fn arg(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// The `--check` baseline, when one was given and parses.
    pub(crate) fn baseline(&self) -> Option<Json> {
        self.check.as_deref().and_then(|path| load(path).ok())
    }
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "{problem}\nflags: --smoke --json --out PATH --check PATH --seeds N --base N --seed N"
    );
    std::process::exit(2)
}

/// What one experiment produced.
pub struct Report {
    /// The deterministic document (a JSON object): everything a rerun
    /// at the same scale must reproduce exactly, at any worker count.
    pub doc: Json,
    /// Host-dependent values, emitted as the document's last member,
    /// `"host"`; `Json::Null` emits none.
    pub host: Json,
    /// The human-readable rendering printed without `--json`.
    pub(crate) text: String,
    /// Gate failures; any makes [`finish`] exit 1.
    pub failures: Vec<String>,
}

impl Report {
    /// A report with no host values and no failures.
    pub fn new(doc: Json, text: String) -> Report {
        Report {
            doc,
            host: Json::Null,
            text,
            failures: Vec::new(),
        }
    }

    /// The emitted document: [`Report::doc`] plus `"host"`.
    fn document(&self) -> Json {
        let mut doc = self.doc.clone();
        if let (Json::Obj(pairs), false) = (&mut doc, self.host == Json::Null) {
            pairs.push(("host".into(), self.host.clone()));
        }
        doc
    }
}

/// Emit `report` as `cli` asks and turn its failures, and a failed
/// `--check`, into the exit status.
pub fn finish(report: Report, cli: &Cli) -> ExitCode {
    let doc = report.document();
    let mut failures = report.failures;
    if let Some(path) = &cli.out {
        match std::fs::write(path, doc.pretty() + "\n") {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => failures.push(format!("cannot write {path}: {e}")),
        }
    }
    if cli.json {
        println!("{}", doc.render());
    } else {
        print!("{}", report.text);
    }
    if let Some(path) = &cli.check {
        let fresh = Json::parse(&doc.render()).expect("a rendered document parses");
        match load(path) {
            Ok(base) => failures.extend(
                difference(&without_host(base), &without_host(fresh), "")
                    .map(|d| format!("--check {path}: {d}")),
            ),
            Err(e) => failures.push(e),
        }
    }
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn without_host(mut doc: Json) -> Json {
    if let Json::Obj(pairs) = &mut doc {
        pairs.retain(|(k, _)| k != "host");
    }
    doc
}

/// Where `fresh` first departs from `base`, as a path into the
/// document (`None` when they are equal).
fn difference(base: &Json, fresh: &Json, at: &str) -> Option<String> {
    match (base, fresh) {
        (Json::Obj(a), Json::Obj(b)) => {
            let keys = |o: &[(String, Json)]| o.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
            if keys(a) != keys(b) {
                return Some(format!("{at}: keys {:?} vs {:?}", keys(a), keys(b)));
            }
            a.iter()
                .zip(b)
                .find_map(|((k, x), (_, y))| difference(x, y, &format!("{at}.{k}")))
        }
        (Json::Arr(a), Json::Arr(b)) if a.len() != b.len() => Some(format!(
            "{at}: {} elements in the baseline vs {} in this run",
            a.len(),
            b.len()
        )),
        (Json::Arr(a), Json::Arr(b)) => a
            .iter()
            .zip(b)
            .enumerate()
            .find_map(|(i, (x, y))| difference(x, y, &format!("{at}[{i}]"))),
        _ if base == fresh => None,
        _ => Some(format!(
            "{at}: {} in the baseline vs {} in this run",
            base.render(),
            fresh.render()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn difference_names_the_first_departure() {
        let base = Json::parse(r#"{"scale":"quick","cells":[{"n":1},{"n":2}]}"#).unwrap();
        assert_eq!(difference(&base, &base.clone(), ""), None);
        let moved = Json::parse(r#"{"scale":"quick","cells":[{"n":1},{"n":3}]}"#).unwrap();
        assert_eq!(
            difference(&base, &moved, "").as_deref(),
            Some(".cells[1].n: 2 in the baseline vs 3 in this run")
        );
        let cut = Json::parse(r#"{"scale":"quick","cells":[{"n":1}]}"#).unwrap();
        assert_eq!(
            difference(&base, &cut, "").as_deref(),
            Some(".cells: 2 elements in the baseline vs 1 in this run")
        );
        let renamed = Json::parse(r#"{"size":"quick","cells":[]}"#).unwrap();
        assert!(difference(&base, &renamed, "").unwrap().contains("keys"));
    }

    #[test]
    fn host_is_the_last_member_and_check_ignores_it() {
        let mut r = Report::new(Json::obj([("n", Json::U64(1))]), String::new());
        assert_eq!(r.document(), r.doc);
        r.host = Json::obj([("host_secs", Json::F64(0.5))]);
        assert_eq!(r.document().render(), r#"{"n":1,"host":{"host_secs":0.5}}"#);
        assert_eq!(without_host(r.document()), r.doc);
    }
}
