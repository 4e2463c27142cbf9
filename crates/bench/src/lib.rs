//! Experiment harness regenerating every table and figure of §IV.
//!
//! `cargo run -p hqmr-bench --release --bin tables -- <experiment> [scale]`
//! runs one experiment (or `all`) and writes its report to
//! `results/<experiment>.txt`. The default scale keeps every experiment
//! within seconds on a laptop; pass a larger scale (e.g. `128`) for the
//! numbers recorded in EXPERIMENTS.md.
//!
//! The absolute values differ from the paper (synthetic proxies, different
//! machine); the *shape* — who wins, by what factor, where crossovers sit —
//! is the reproduction target.

pub mod datasets;
pub mod experiments;
pub mod load;
pub mod runner;

use std::fmt;
use std::io::Write;
use std::path::PathBuf;

/// Writes a report to `results/<name>.txt` (creating the directory) and
/// echoes it to stdout.
pub fn emit_report(name: &str, body: &str) {
    println!("{body}");
    let dir = results_dir();
    std::fs::create_dir_all(&dir).ok();
    let path = dir.join(format!("{name}.txt"));
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            let _ = f.write_all(body.as_bytes());
            eprintln!("[saved {}]", path.display());
        }
        Err(e) => eprintln!("[could not save {}: {e}]", path.display()),
    }
}

/// The `results/` directory at the workspace root (falls back to CWD).
pub fn results_dir() -> PathBuf {
    let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    here.ancestors()
        .nth(2)
        .map(|p| p.join("results"))
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// A JSON value laid out the way the committed `BENCH_*.json` files are.
#[derive(Debug)]
pub enum Json {
    /// Written verbatim: a number, `true`/`false`, `null` or a quoted string.
    Raw(String),
    /// `{"key": value, ...}` on one line.
    Obj(Vec<(&'static str, Json)>),
    /// `[a, b, ...]` on one line.
    Arr(Vec<Json>),
    /// An array written one element per line, like every file's `records`.
    Rows(Vec<Json>),
}

/// `obj!{"key": value, ...}` builds a [`Json::Obj`], converting each value
/// with `Json::from`.
#[macro_export]
macro_rules! obj {
    ($($k:literal: $v:expr),* $(,)?) => {
        $crate::Json::Obj(vec![$(($k, $crate::Json::from($v))),*])
    };
}

impl Json {
    /// `x` with `decimals` digits after the point; `null` when `x` is not
    /// finite (a lossless codec's PSNR is infinite).
    pub fn num(x: f64, decimals: usize) -> Json {
        Json::Raw(if x.is_finite() {
            format!("{x:.decimals$}")
        } else {
            "null".into()
        })
    }
}

macro_rules! json_from_display {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Raw(v.to_string())
            }
        }
    )*};
}
json_from_display!(u64, usize, bool);

/// Bench labels never need escaping.
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Raw(format!("\"{s}\""))
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(xs: Vec<T>) -> Json {
        Json::Arr(xs.into_iter().map(Into::into).collect())
    }
}

fn fields(kv: &[(&str, Json)]) -> Vec<String> {
    kv.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect()
}

fn items(xs: &[Json]) -> Vec<String> {
    xs.iter().map(Json::to_string).collect()
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Raw(s) => f.write_str(s),
            Json::Obj(kv) => write!(f, "{{{}}}", fields(kv).join(", ")),
            Json::Arr(xs) => write!(f, "[{}]", items(xs).join(", ")),
            Json::Rows(xs) => write!(f, "[\n    {}\n  ]", items(xs).join(",\n    ")),
        }
    }
}

/// Renders a BENCH file: a top-level object is written one key per line.
fn bench_file(root: &Json) -> String {
    match root {
        Json::Obj(kv) => format!("{{\n  {}\n}}\n", fields(kv).join(",\n  ")),
        other => format!("{other}\n"),
    }
}

/// Writes a committed JSON baseline (e.g. `BENCH_codecs.json`,
/// `BENCH_store.json`) at the workspace root, appending the outcome to the
/// experiment's report body.
pub fn write_root_json(name: &str, root: &Json, report: &mut String) {
    use std::fmt::Write as _;
    let Some(root_dir) = results_dir().parent().map(std::path::Path::to_path_buf) else {
        return;
    };
    let path = root_dir.join(name);
    match std::fs::write(&path, bench_file(root)) {
        Ok(()) => writeln!(report, "wrote {}", path.display()).unwrap(),
        Err(e) => writeln!(report, "could not write {}: {e}", path.display()).unwrap(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_keys_and_records_take_one_line_each() {
        let root = obj! {
            "dataset": "Nyx-T1",
            "rel_eb": Json::Raw("8e-3".into()),
            "records": Json::Rows(vec![
                obj! {"backend": "sz3", "bytes": 10u64},
                obj! {"backend": "zfp", "bytes": 20u64},
            ]),
        };
        assert_eq!(
            bench_file(&root),
            "{\n  \"dataset\": \"Nyx-T1\",\n  \"rel_eb\": 8e-3,\n  \"records\": [\n    \
             {\"backend\": \"sz3\", \"bytes\": 10},\n    \
             {\"backend\": \"zfp\", \"bytes\": 20}\n  ]\n}\n"
        );
    }

    #[test]
    fn nested_arrays_and_objects_keep_the_bench_layout() {
        // A `BENCH_store.json` record: inline `roi` corners and an inline
        // `progressive` array of objects.
        let store = obj! {
            "roi": vec![vec![16usize, 16, 16], vec![48, 48, 48]],
            "progressive": vec![
                obj! {"level": 1usize, "cum_s": Json::num(0.0054881, 6), "cum_bytes": 10663u64},
                obj! {"level": 0usize, "cum_s": Json::num(0.0072834, 6), "cum_bytes": 26311u64},
            ],
        };
        assert_eq!(
            store.to_string(),
            "{\"roi\": [[16, 16, 16], [48, 48, 48]], \"progressive\": [{\"level\": 1, \
             \"cum_s\": 0.005488, \"cum_bytes\": 10663}, {\"level\": 0, \"cum_s\": 0.007283, \
             \"cum_bytes\": 26311}]}"
        );
        // `BENCH_hotpath.json`'s `chunk_floor`: an inline object whose
        // `rows` go one per line.
        let root = obj! {
            "chunk_floor": obj! {
                "available_parallelism": 2usize,
                "runs": 7usize,
                "rows": Json::Rows(vec![
                    obj! {"codec": "sz3", "side": 4usize},
                    obj! {"codec": "sz2", "side": 4usize},
                ]),
            },
            "end_to_end": Json::Rows(vec![obj! {"backend": "sz3"}]),
        };
        assert_eq!(
            bench_file(&root),
            "{\n  \"chunk_floor\": {\"available_parallelism\": 2, \"runs\": 7, \"rows\": [\n    \
             {\"codec\": \"sz3\", \"side\": 4},\n    {\"codec\": \"sz2\", \"side\": 4}\n  ]},\n  \
             \"end_to_end\": [\n    {\"backend\": \"sz3\"}\n  ]\n}\n"
        );
    }

    #[test]
    fn numbers_round_and_non_finite_floats_are_null() {
        assert_eq!(Json::num(65.4554, 3).to_string(), "65.455");
        assert_eq!(Json::num(f64::INFINITY, 3).to_string(), "null");
        assert_eq!(Json::num(f64::NAN, 2).to_string(), "null");
        assert_eq!(Json::from(true).to_string(), "true");
        assert_eq!(
            obj! {"backend": "null", "psnr": Json::num(f64::INFINITY, 3)}.to_string(),
            "{\"backend\": \"null\", \"psnr\": null}"
        );
    }
}
