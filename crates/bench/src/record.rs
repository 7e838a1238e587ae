//! `BENCH_rdl.json`, the one record every bench binary writes.
//!
//! A binary opens the record, hands each section it measured to
//! [`BenchRecord::set`] or [`BenchRecord::merge`] as a [`Json`] value,
//! and calls [`BenchRecord::save`]. The record owns everything else:
//! parsing with the strict serve parser, carrying what this run did not
//! measure (other binaries' sections, circuits it did not re-route),
//! stamping what it did measure with provenance, and writing one fixed
//! layout.

use info_router::serve::json::{self, Json};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

/// Where the bench binaries keep the record, relative to the working
/// directory.
pub const BENCH_PATH: &str = "BENCH_rdl.json";

/// Containers nested shallower than this are written one child per
/// line; deeper ones stay compact on one line. Four levels give each
/// circuit counter and each journal entry (`circuits[i].journal[j]`) a
/// line of its own, so a re-run diffs line by line.
const BREAK_DEPTH: usize = 4;

/// `BENCH_rdl.json` opened for one run. See the module docs.
#[derive(Debug)]
pub struct BenchRecord {
    path: PathBuf,
    members: Vec<(String, Json)>,
    provenance: Json,
}

impl BenchRecord {
    /// Opens the record at `path` for a run at `threads` worker threads
    /// (the count stamped into every section the run writes). A missing
    /// file starts an empty record. A file that does not parse as a JSON
    /// object is an error, and is left as it is.
    pub fn open(path: impl Into<PathBuf>, threads: usize) -> io::Result<Self> {
        let path = path.into();
        let members = match std::fs::read_to_string(&path) {
            Ok(text) => match json::parse(&text) {
                Ok(Json::Obj(members)) => members,
                Ok(_) => return Err(invalid(&path, "the top level is not an object")),
                Err(e) => return Err(invalid(&path, e)),
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io::Error::new(e.kind(), format!("{}: {e}", path.display()))),
        };
        Ok(BenchRecord { path, members, provenance: provenance(threads) })
    }

    /// The top-level section `key`, if the record has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Replaces the top-level section `key` (appending it if new). An
    /// object is stamped with this run's provenance.
    pub fn set(&mut self, key: &str, value: Json) {
        let value = self.stamped(value);
        self.put(key, value);
    }

    /// Merges the keyed entries of `fresh` into the section `key`. An
    /// array is keyed by each element's `"name"`, an object by its
    /// member keys. A fresh entry replaces the recorded one of the same
    /// key and is stamped with provenance; a recorded entry `fresh` does
    /// not cover is carried unchanged. The result is sorted by key and
    /// keeps `fresh`'s shape. Returns the carried keys.
    pub fn merge(&mut self, key: &str, fresh: Json) -> Vec<String> {
        let is_array = matches!(fresh, Json::Arr(_));
        let mut merged: Vec<(String, Json)> =
            entries(fresh).into_iter().map(|(k, v)| (k, self.stamped(v))).collect();
        let old = match self.get(key) {
            Some(old) if matches!(old, Json::Arr(_)) == is_array => entries(old.clone()),
            _ => Vec::new(),
        };
        let mut carried = Vec::new();
        for (k, v) in old {
            if !merged.iter().any(|(m, _)| *m == k) {
                carried.push(k.clone());
                merged.push((k, v));
            }
        }
        merged.sort_by(|a, b| a.0.cmp(&b.0));
        let value = if is_array {
            Json::Arr(merged.into_iter().map(|(_, v)| v).collect())
        } else {
            Json::Obj(merged)
        };
        self.put(key, value);
        carried
    }

    /// Writes the record back to its path. The text is re-parsed first
    /// and must give back exactly the record (a non-finite number, for
    /// one, would not); it then replaces the file in one rename, so a
    /// failed save leaves the old file as it was.
    pub fn save(&self) -> io::Result<()> {
        let mut text = String::new();
        write_container(
            self.members.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ('{', '}'),
            0,
            &mut text,
        );
        text.push('\n');
        match json::parse(&text) {
            Ok(Json::Obj(back)) if back == self.members => {}
            Ok(_) => return Err(invalid(&self.path, "the written text does not parse back")),
            Err(e) => return Err(invalid(&self.path, e)),
        }
        let tmp = self.path.with_extension("json.tmp");
        std::fs::write(&tmp, &text).and_then(|()| std::fs::rename(&tmp, &self.path)).map_err(
            |e| {
                let _ = std::fs::remove_file(&tmp);
                io::Error::new(e.kind(), format!("{}: {e}", self.path.display()))
            },
        )
    }

    fn put(&mut self, key: &str, value: Json) {
        match self.members.iter_mut().find(|(k, _)| k == key) {
            Some((_, slot)) => *slot = value,
            None => self.members.push((key.to_string(), value)),
        }
    }

    fn stamped(&self, value: Json) -> Json {
        match value {
            Json::Obj(mut members) => {
                members.retain(|(k, _)| k != "provenance");
                members.push(("provenance".to_string(), self.provenance.clone()));
                Json::Obj(members)
            }
            other => other,
        }
    }
}

/// Builds an object from `(key, value)` pairs, in order.
pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// `x` rounded to `places` decimals.
pub fn fixed(x: f64, places: i32) -> Json {
    let scale = 10f64.powi(places);
    Json::Num((x * scale).round() / scale)
}

/// Where and how a run was measured: the short git commit (`"unknown"`
/// without git; suffixed `-dirty` when tracked files other than the record
/// itself differ from it, so numbers from an uncommitted tree are not
/// credited to its parent), the machine's core count, the run's thread
/// count and the wall-clock time.
fn provenance(threads: usize) -> Json {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_string())
    };
    let commit = match git(&["rev-parse", "--short", "HEAD"]).filter(|s| !s.is_empty()) {
        None => "unknown".to_string(),
        Some(head) => {
            let changes = git(&[
                "status",
                "--porcelain",
                "--untracked-files=no",
                "--",
                ":/",
                ":(top,exclude)BENCH_rdl.json",
            ]);
            if changes.is_some_and(|c| !c.is_empty()) {
                format!("{head}-dirty")
            } else {
                head
            }
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let unix_time = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    obj([
        ("commit", Json::Str(commit)),
        ("nproc", Json::Num(nproc as f64)),
        ("threads", Json::Num(threads as f64)),
        ("unix_time", Json::Num(unix_time as f64)),
    ])
}

/// A keyed section as `(key, entry)` pairs: an object's members, or an
/// array's elements keyed by their `"name"`.
fn entries(section: Json) -> Vec<(String, Json)> {
    match section {
        Json::Obj(members) => members,
        Json::Arr(items) => items
            .into_iter()
            .map(|e| (e.get("name").and_then(Json::as_str).unwrap_or_default().to_string(), e))
            .collect(),
        _ => Vec::new(),
    }
}

fn invalid(path: &Path, why: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("{}: {why}", path.display()))
}

fn write_value(value: &Json, depth: usize, out: &mut String) {
    match value {
        Json::Arr(items) if depth < BREAK_DEPTH && !items.is_empty() => {
            write_container(items.iter().map(|v| (None, v)), ('[', ']'), depth, out);
        }
        Json::Obj(members) if depth < BREAK_DEPTH && !members.is_empty() => {
            let members = members.iter().map(|(k, v)| (Some(k.as_str()), v));
            write_container(members, ('{', '}'), depth, out);
        }
        compact => out.push_str(&compact.to_string()),
    }
}

/// One child per line, indented two spaces per level.
fn write_container<'a>(
    children: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
    (open, close): (char, char),
    depth: usize,
    out: &mut String,
) {
    let last = children.len().saturating_sub(1);
    out.push(open);
    for (i, (key, child)) in children.enumerate() {
        out.push('\n');
        out.push_str(&"  ".repeat(depth + 1));
        if let Some(key) = key {
            out.push_str(&Json::Str(key.to_string()).to_string());
            out.push_str(": ");
        }
        write_value(child, depth + 1, out);
        if i < last {
            out.push(',');
        }
    }
    out.push('\n');
    out.push_str(&"  ".repeat(depth));
    out.push(close);
}
