//! # e10-mpiwrap
//!
//! MPIWRAP (paper §III-C): a wrapper around the MPI-IO entry points
//! that retrofits the modified workflow of Fig. 3 onto unmodified
//! applications.
//!
//! * **Hint configuration file.** MPI-IO hints live in a config file
//!   and are attached to `MPI_File_open` for every file whose name
//!   matches a rule, so legacy applications get the `e10_*` hints
//!   without source changes.
//! * **Deferred close.** For files in a `deferred_close` family,
//!   `MPI_File_close` returns success immediately but keeps the handle;
//!   the next `MPI_File_open` of a file with the same base name first
//!   really closes the outstanding handle (waiting for cache
//!   synchronisation) before opening the new one — moving the close of
//!   file *k* to the start of I/O phase *k+1*, exactly Fig. 3.
//! * `finalize()` (the `MPI_Finalize` overload) really closes anything
//!   still outstanding.
//!
//! The config format mirrors the real library's hints file:
//!
//! ```text
//! # one section per file family
//! file: /gfs/checkpoint*
//!   e10_cache enable
//!   e10_cache_flush_flag flush_onclose
//!   deferred_close true
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use e10_mpisim::Info;
use e10_romio::{job_family, AdioFile, Error, IoCtx};

/// One configuration rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileRule {
    /// Glob-ish pattern: a literal path, optionally ending in `*`.
    pub pattern: String,
    /// Hints applied at open.
    pub hints: Vec<(String, String)>,
    /// Whether closes of matching files are deferred to the next open
    /// of the same family.
    pub deferred_close: bool,
}

impl FileRule {
    /// True if `path` matches the rule's pattern.
    pub fn matches(&self, path: &str) -> bool {
        match self.pattern.strip_suffix('*') {
            Some(prefix) => path.starts_with(prefix),
            None => path == self.pattern,
        }
    }
}

/// Parsed wrapper configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WrapConfig {
    /// Rules, first match wins.
    pub rules: Vec<FileRule>,
}

/// A malformed config line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line number.
    pub line: usize,
    /// What is wrong.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "config line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl WrapConfig {
    /// Parse the config text.
    pub fn parse(text: &str) -> Result<WrapConfig, ConfigError> {
        let mut rules: Vec<FileRule> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(pat) = line.strip_prefix("file:") {
                let pat = pat.trim();
                if pat.is_empty() {
                    return Err(ConfigError {
                        line: i + 1,
                        message: "empty file pattern".into(),
                    });
                }
                rules.push(FileRule {
                    pattern: pat.to_string(),
                    hints: Vec::new(),
                    deferred_close: false,
                });
            } else {
                let Some(rule) = rules.last_mut() else {
                    return Err(ConfigError {
                        line: i + 1,
                        message: "hint before any 'file:' section".into(),
                    });
                };
                let mut it = line.splitn(2, char::is_whitespace);
                let key = it.next().unwrap_or("").trim();
                let value = it.next().unwrap_or("").trim();
                if key.is_empty() || value.is_empty() {
                    return Err(ConfigError {
                        line: i + 1,
                        message: format!("expected '<key> <value>', got {line:?}"),
                    });
                }
                if key == "deferred_close" {
                    rule.deferred_close = match value {
                        "true" | "enable" => true,
                        "false" | "disable" => false,
                        _ => {
                            return Err(ConfigError {
                                line: i + 1,
                                message: format!(
                                    "deferred_close must be true/false, got {value:?}"
                                ),
                            })
                        }
                    };
                } else {
                    rule.hints.push((key.to_string(), value.to_string()));
                }
            }
        }
        Ok(WrapConfig { rules })
    }

    /// The first rule matching `path`.
    pub fn rule_for(&self, path: &str) -> Option<&FileRule> {
        self.rules.iter().find(|r| r.matches(path))
    }
}

/// Per-process wrapper state (the PMPI layer).
pub struct MpiWrap {
    ctx: IoCtx,
    config: WrapConfig,
    /// family → handle whose close was deferred (ordered: `finalize`
    /// closes in path order, and no allocator count hangs on a hash).
    outstanding: RefCell<BTreeMap<String, AdioFile>>,
    deferred_closes: RefCell<u64>,
    real_closes: RefCell<u64>,
}

impl MpiWrap {
    /// Install the wrapper for one process (the `MPI_Init` overload).
    pub fn new(ctx: IoCtx, config: WrapConfig) -> Rc<MpiWrap> {
        Rc::new(MpiWrap {
            ctx,
            config,
            outstanding: RefCell::new(BTreeMap::new()),
            deferred_closes: RefCell::new(0),
            real_closes: RefCell::new(0),
        })
    }

    /// The `MPI_File_open` overload: really closes any outstanding
    /// same-family handle first (triggering the cache-synchronisation
    /// completion check), merges configured hints over the caller's,
    /// then opens.
    pub async fn file_open(
        &self,
        path: &str,
        user_info: &Info,
        create: bool,
    ) -> Result<AdioFile, Error> {
        let family = job_family(path).to_string();
        let prev = self.outstanding.borrow_mut().remove(&family);
        if let Some(f) = prev {
            f.close().await;
            *self.real_closes.borrow_mut() += 1;
        }
        let info = user_info.dup();
        if let Some(rule) = self.config.rule_for(path) {
            for (k, v) in &rule.hints {
                info.set(k, v);
            }
        }
        AdioFile::open(&self.ctx, path, &info, create).await
    }

    /// The `MPI_File_close` overload: defers the close for configured
    /// families, otherwise closes for real.
    pub async fn file_close(&self, file: AdioFile) {
        let path = file.global().path().to_string();
        let deferred = self
            .config
            .rule_for(&path)
            .is_some_and(|r| r.deferred_close);
        if deferred {
            *self.deferred_closes.borrow_mut() += 1;
            self.outstanding
                .borrow_mut()
                .insert(job_family(&path).to_string(), file);
        } else {
            file.close().await;
            *self.real_closes.borrow_mut() += 1;
        }
    }

    /// The `MPI_Finalize` overload: really close everything still
    /// outstanding (in deterministic path order).
    pub async fn finalize(&self) {
        let files = std::mem::take(&mut *self.outstanding.borrow_mut());
        for f in files.into_values() {
            f.close().await;
            *self.real_closes.borrow_mut() += 1;
        }
    }

    /// Handles whose close is currently deferred.
    pub fn outstanding_count(&self) -> usize {
        self.outstanding.borrow().len()
    }

    /// `(deferred, real)` close counts.
    pub fn close_stats(&self) -> (u64, u64) {
        (*self.deferred_closes.borrow(), *self.real_closes.borrow())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e10_romio::TestbedSpec;
    use e10_simcore::run;
    use e10_storesim::Payload;

    const CONFIG: &str = "\
# E10 hints for checkpoint streams
file: /gfs/chk*
  e10_cache enable
  e10_cache_flush_flag flush_onclose
  e10_cache_discard_flag enable
  deferred_close true

file: /gfs/plain.dat
  romio_cb_write enable
";

    #[test]
    fn config_parses_sections_and_hints() {
        let cfg = WrapConfig::parse(CONFIG).unwrap();
        assert_eq!(cfg.rules.len(), 2);
        let r = cfg.rule_for("/gfs/chk.0").unwrap();
        assert!(r.deferred_close);
        assert_eq!(r.hints.len(), 3);
        assert!(cfg.rule_for("/gfs/plain.dat").is_some());
        assert!(cfg.rule_for("/gfs/other").is_none());
    }

    #[test]
    fn config_errors_are_located() {
        let e = WrapConfig::parse("e10_cache enable\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("file:"));
        let e = WrapConfig::parse("file: /a\n  deferred_close maybe\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = WrapConfig::parse("file:\n").unwrap_err();
        assert!(e.message.contains("empty"));
        // Comments and blanks are fine.
        assert!(WrapConfig::parse("# hi\n\n").unwrap().rules.is_empty());
    }

    #[test]
    fn deferred_close_workflow_matches_fig3() {
        run(async {
            let tb = TestbedSpec::small(2, 1).build();
            let cfg = WrapConfig::parse(CONFIG).unwrap();
            let handles: Vec<_> = tb
                .ctxs()
                .into_iter()
                .map(|ctx| {
                    let cfg = cfg.clone();
                    e10_simcore::spawn(async move {
                        let wrap = MpiWrap::new(ctx.clone(), cfg);
                        let rank = ctx.comm.rank() as u64;
                        // Phase 0: write file chk.0, "close" it.
                        let f0 = wrap
                            .file_open("/gfs/chk.0", &Info::new(), true)
                            .await
                            .unwrap();
                        f0.write_contig(rank * 1000, Payload::gen(70, rank * 1000, 1000))
                            .await
                            .unwrap();
                        let g0 = f0.global().clone();
                        wrap.file_close(f0).await;
                        assert_eq!(wrap.outstanding_count(), 1);
                        // flush_onclose + deferred close: nothing has
                        // reached the global file yet.
                        assert_eq!(g0.extents().covered_bytes(), 0);

                        // Phase 1: opening chk.1 really closes chk.0.
                        let f1 = wrap
                            .file_open("/gfs/chk.1", &Info::new(), true)
                            .await
                            .unwrap();
                        assert_eq!(wrap.outstanding_count(), 0);
                        g0.extents().verify_gen(70, rank * 1000, 1000).unwrap();
                        f1.write_contig(rank * 1000, Payload::gen(71, rank * 1000, 1000))
                            .await
                            .unwrap();
                        let g1 = f1.global().clone();
                        wrap.file_close(f1).await;

                        // Finalize really closes chk.1.
                        wrap.finalize().await;
                        assert_eq!(wrap.outstanding_count(), 0);
                        g1.extents().verify_gen(71, rank * 1000, 1000).unwrap();
                        let (deferred, real) = wrap.close_stats();
                        assert_eq!(deferred, 2);
                        assert_eq!(real, 2);
                    })
                })
                .collect();
            e10_simcore::join_all(handles).await;
        });
    }

    #[test]
    fn non_configured_files_close_immediately() {
        run(async {
            let tb = TestbedSpec::small(1, 1).build();
            let ctx = tb.ctx(0);
            let wrap = MpiWrap::new(ctx, WrapConfig::parse(CONFIG).unwrap());
            let f = wrap
                .file_open("/gfs/other.0", &Info::new(), true)
                .await
                .unwrap();
            wrap.file_close(f).await;
            assert_eq!(wrap.outstanding_count(), 0);
            let (deferred, real) = wrap.close_stats();
            assert_eq!((deferred, real), (0, 1));
        });
    }

    #[test]
    fn configured_hints_reach_the_file() {
        run(async {
            let tb = TestbedSpec::small(1, 1).build();
            let ctx = tb.ctx(0);
            let wrap = MpiWrap::new(ctx, WrapConfig::parse(CONFIG).unwrap());
            let f = wrap
                .file_open("/gfs/chk.0", &Info::new(), true)
                .await
                .unwrap();
            assert!(f.cache_active(), "config must enable the E10 cache");
            assert!(f.hints().e10_cache_discard_flag);
            wrap.file_close(f).await;
            wrap.finalize().await;
        });
    }

    /// Two independent deferred-close families for the conformance
    /// tests below.
    const TWO_FAMILY_CONFIG: &str = "\
file: /gfs/chk*
  e10_cache enable
  e10_cache_flush_flag flush_onclose
  e10_cache_discard_flag enable
  deferred_close true

file: /gfs/log*
  e10_cache enable
  e10_cache_flush_flag flush_onclose
  e10_cache_discard_flag enable
  deferred_close true
";

    #[test]
    fn reopen_really_closes_the_old_handle_first() {
        // Fig. 3 conformance: the deferred close of file k must have
        // *actually completed* — handle closed, data synced — by the
        // time the open of file k+1 returns, not merely be scheduled.
        run(async {
            let tb = TestbedSpec::small(1, 1).build();
            let wrap = MpiWrap::new(tb.ctx(0), WrapConfig::parse(TWO_FAMILY_CONFIG).unwrap());
            let f0 = wrap
                .file_open("/gfs/chk.0", &Info::new(), true)
                .await
                .unwrap();
            f0.write_contig(0, Payload::gen(80, 0, 4096)).await.unwrap();
            let watch = f0.clone(); // shares the closed flag
            let g0 = f0.global().clone();
            wrap.file_close(f0).await;
            // Deferred: success was reported but nothing closed.
            assert!(!watch.is_closed());
            assert_eq!(wrap.outstanding_count(), 1);
            assert_eq!(g0.extents().covered_bytes(), 0);

            let f1 = wrap
                .file_open("/gfs/chk.1", &Info::new(), true)
                .await
                .unwrap();
            // The old handle is really closed and its bytes persistent
            // before the new open completes.
            assert!(watch.is_closed());
            assert_eq!(wrap.outstanding_count(), 0);
            g0.extents().verify_gen(80, 0, 4096).unwrap();
            wrap.file_close(f1).await;
            wrap.finalize().await;
        });
    }

    #[test]
    fn finalize_drains_every_outstanding_family() {
        // Two families defer closes independently; MPI_Finalize must
        // really close both, syncing their caches.
        run(async {
            let tb = TestbedSpec::small(1, 1).build();
            let wrap = MpiWrap::new(tb.ctx(0), WrapConfig::parse(TWO_FAMILY_CONFIG).unwrap());
            let fc = wrap
                .file_open("/gfs/chk.0", &Info::new(), true)
                .await
                .unwrap();
            fc.write_contig(0, Payload::gen(81, 0, 2048)).await.unwrap();
            let fl = wrap
                .file_open("/gfs/log.0", &Info::new(), true)
                .await
                .unwrap();
            fl.write_contig(0, Payload::gen(82, 0, 2048)).await.unwrap();
            let (wc, wl) = (fc.clone(), fl.clone());
            let (gc, gl) = (fc.global().clone(), fl.global().clone());
            wrap.file_close(fc).await;
            wrap.file_close(fl).await;
            assert_eq!(wrap.outstanding_count(), 2);
            assert!(!wc.is_closed() && !wl.is_closed());

            wrap.finalize().await;
            assert_eq!(wrap.outstanding_count(), 0);
            assert!(wc.is_closed() && wl.is_closed());
            gc.extents().verify_gen(81, 0, 2048).unwrap();
            gl.extents().verify_gen(82, 0, 2048).unwrap();
            let (deferred, real) = wrap.close_stats();
            assert_eq!((deferred, real), (2, 2));
        });
    }

    #[test]
    fn open_of_other_family_leaves_outstanding_handle_untouched() {
        // Only a same-family open flushes the deferred handle; files
        // of other families (or none) must not disturb it.
        run(async {
            let tb = TestbedSpec::small(1, 1).build();
            let wrap = MpiWrap::new(tb.ctx(0), WrapConfig::parse(TWO_FAMILY_CONFIG).unwrap());
            let f0 = wrap
                .file_open("/gfs/chk.0", &Info::new(), true)
                .await
                .unwrap();
            let watch = f0.clone();
            wrap.file_close(f0).await;
            assert_eq!(wrap.outstanding_count(), 1);

            // A different deferred family and an unconfigured file:
            // neither touches the outstanding chk handle.
            let fl = wrap
                .file_open("/gfs/log.0", &Info::new(), true)
                .await
                .unwrap();
            let fo = wrap
                .file_open("/gfs/other.dat", &Info::new(), true)
                .await
                .unwrap();
            assert!(!watch.is_closed());
            wrap.file_close(fo).await; // unconfigured: closes for real
            wrap.file_close(fl).await; // deferred alongside chk
            assert!(!watch.is_closed());
            assert_eq!(wrap.outstanding_count(), 2);

            wrap.finalize().await;
            assert!(watch.is_closed());
            assert_eq!(wrap.outstanding_count(), 0);
        });
    }

    #[test]
    fn user_hints_are_overridden_by_config() {
        run(async {
            let tb = TestbedSpec::small(1, 1).build();
            let ctx = tb.ctx(0);
            let wrap = MpiWrap::new(ctx, WrapConfig::parse(CONFIG).unwrap());
            let user = Info::from_pairs([("e10_cache", "disable"), ("cb_buffer_size", "1M")]);
            let f = wrap.file_open("/gfs/chk.9", &user, true).await.unwrap();
            // Config wins for its keys; unrelated user hints survive.
            assert!(f.cache_active());
            assert_eq!(f.hints().cb_buffer_size, 1 << 20);
            wrap.file_close(f).await;
            wrap.finalize().await;
        });
    }
}
