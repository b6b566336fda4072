//! The run manifest attached to every result: host, build, workload
//! parameters and seed.

use std::path::Path;
use std::process::Command;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// `ctsim_obs::host_info()`.
    pub logical_cores: u64,
    pub page_size_bytes: u64,
    pub total_ram_bytes: u64,
    /// Output of `nproc`, when the command exists.
    pub nproc: Option<u64>,
    /// Commit of the checkout (`unknown` outside a git work tree).
    pub git_commit: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Threads, spill budget and workload parameters.
    pub params: Json,
}

fn command_output(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit `HEAD` names, read from `<root>/.git` directly so nothing
/// outside the checkout is consulted.
pub fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(r)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == r).then(|| id.to_string())
    })
}

impl Manifest {
    /// Probes the host and build for a run of `workload`.
    pub fn probe(
        workload: &str,
        seed: u64,
        seconds: u64,
        trace: bool,
        params: Json,
        root: &Path,
    ) -> Self {
        let host = ctsim_obs::host_info();
        Manifest {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            logical_cores: host.logical_cores as u64,
            page_size_bytes: host.page_size_bytes,
            total_ram_bytes: host.total_ram_bytes,
            nproc: command_output("nproc", &[]).and_then(|s| s.parse().ok()),
            git_commit: git_commit(root).unwrap_or_else(|| "unknown".to_string()),
            rustc: command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
            params,
        }
    }

    pub fn to_json(&self) -> Json {
        let mut host = Json::obj();
        host.set("logical_cores", self.logical_cores);
        host.set("page_size_bytes", self.page_size_bytes);
        host.set("total_ram_bytes", self.total_ram_bytes);
        host.set("nproc", self.nproc);
        let mut j = Json::obj();
        j.set("workload", self.workload.as_str());
        // Seeds are full u64s: kept as a string so no digit is lost to f64.
        j.set("seed", self.seed.to_string());
        j.set("seconds", self.seconds);
        j.set("trace", self.trace);
        j.set("host", host);
        j.set("git_commit", self.git_commit.as_str());
        j.set("rustc", self.rustc.as_str());
        j.set("params", self.params.clone());
        j
    }

    #[cfg(test)]
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let s = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("manifest: missing string `{k}`"))
        };
        let host = j.get("host").ok_or("manifest: missing `host`")?;
        let u = |v: &Json, k: &str| {
            v.num(k)
                .map(|x| x as u64)
                .ok_or_else(|| format!("manifest: missing number `{k}`"))
        };
        Ok(Manifest {
            workload: s("workload")?,
            seed: s("seed")?
                .parse()
                .map_err(|e| format!("manifest: bad seed: {e}"))?,
            seconds: u(j, "seconds")?,
            trace: matches!(j.get("trace"), Some(Json::Bool(true))),
            logical_cores: u(host, "logical_cores")?,
            page_size_bytes: u(host, "page_size_bytes")?,
            total_ram_bytes: u(host, "total_ram_bytes")?,
            nproc: host.num("nproc").map(|x| x as u64),
            git_commit: s("git_commit")?,
            rustc: s("rustc")?,
            params: j.get("params").cloned().unwrap_or(Json::Null),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{Spec, Workload};

    #[test]
    fn manifest_round_trips() {
        let m = Manifest {
            workload: "ooc-n3-ph2".into(),
            seed: u64::MAX - 1,
            seconds: 20,
            trace: true,
            logical_cores: 2,
            page_size_bytes: 4096,
            total_ram_bytes: 16 << 30,
            nproc: Some(2),
            git_commit: "0123abcd".into(),
            rustc: "rustc 1.0.0 (x 2020-01-01)".into(),
            params: Spec::of(Workload::Ooc).to_json(),
        };
        let text = m.to_json().render();
        let back = Manifest::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, m);
        assert_eq!(
            back.params.num("spill_budget_bytes"),
            Some(64.0 * 1024.0 * 1024.0)
        );
    }

    #[test]
    fn probed_manifest_round_trips() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let m = Manifest::probe(
            "cdf-n3-exp",
            7,
            10,
            false,
            Spec::of(Workload::Cdf).to_json(),
            &root,
        );
        assert!(m.logical_cores >= 1);
        let back = Manifest::from_json(&Json::parse(&m.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn incomplete_manifest_is_an_error() {
        assert!(Manifest::from_json(&Json::parse("{\"workload\": \"x\"}").unwrap()).is_err());
    }
}
