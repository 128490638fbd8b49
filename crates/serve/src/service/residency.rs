//! Session residency: checkpointing idle sessions out to disk, the
//! evaluation-count sweep that picks them, and the transparent resume
//! that brings them home.

use super::{attach_spec, build_engine, Shared, State};
use relm_tune::SessionCheckpoint;
use std::path::{Path, PathBuf};

/// A session's one checkpoint file, `<dir>/<name>.ckpt.json`: eviction
/// writes it, resume deletes it, and `Drain` writes it again.
pub(super) fn checkpoint_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.ckpt.json"))
}

/// Checkpoints one idle session to its checkpoint file and unloads its
/// environment and its GP fitter (the next guided search that needs the
/// fitter rebuilds it from the recorded fit schedule). The checkpoint
/// carries the environment's whole state, Table-6 aggregate and cache-hit
/// count included. On any failure the session is left exactly as it was,
/// environment home.
pub(super) fn evict_one_locked(
    shared: &Shared,
    state: &mut State,
    name: &str,
) -> Result<String, String> {
    let Some(dir) = &shared.config.checkpoint_dir else {
        return Err("no checkpoint directory configured (set checkpoint_dir)".into());
    };
    let path = checkpoint_path(dir, name);
    let Some(sess) = state.sessions.get_mut(name) else {
        return Err(format!("unknown session `{name}`"));
    };
    if sess.evicted {
        return Err(format!("session `{name}` is already evicted"));
    }
    if sess.running || !sess.pending.is_empty() {
        return Err(format!(
            "session `{name}` must be idle to evict (join first)"
        ));
    }
    let Some(env) = sess.env.as_ref() else {
        return Err(format!("session `{name}` owns no environment"));
    };
    if let Err(e) = SessionCheckpoint::capture(env).save(&path) {
        shared.obs.inc("serve.evict_errors");
        return Err(format!("eviction checkpoint failed: {e}"));
    }
    sess.env = None;
    sess.guided.drop_fitter();
    sess.evicted = true;
    state.evictions += 1;
    shared.obs.inc("serve.evictions");
    Ok(path.display().to_string())
}

/// The automatic eviction sweep, run on every completion when
/// [`ServeConfig::evict_after_evals`] is set: any session that completed
/// work but has been idle for a full epoch window is checkpointed out.
/// Purely an epoch-clock policy — no wall time touches the decision.
pub(super) fn maybe_evict_locked(shared: &Shared, state: &mut State) {
    let window = shared.config.evict_after_evals;
    if window == 0 || shared.config.checkpoint_dir.is_none() {
        return;
    }
    let epoch = state.evaluations;
    let victims: Vec<String> = state
        .sessions
        .values()
        .filter(|s| {
            !s.evicted
                && s.env.is_some()
                && !s.running
                && s.pending.is_empty()
                && s.completed > 0
                && epoch.saturating_sub(s.last_active) >= window
        })
        .map(|s| s.name.clone())
        .collect();
    for name in victims {
        // Failures (checkpoint unwritable) leave the session live and
        // are counted under `serve.evict_errors`.
        let _ = evict_one_locked(shared, state, &name);
    }
}

/// Brings an evicted session home: loads its checkpoint, rebuilds the
/// engine from the retained spec, resumes the environment (byte-identical
/// history and seed chain — the [`SessionCheckpoint`] resume guarantee),
/// re-applies the spec's retry policy and cache attachment, and deletes
/// the checkpoint file. The GP fitter stays absent until a guided search
/// needs it. No-op for live sessions. On error the session stays evicted
/// and `serve.resume_errors` counts it; the caller decides whether to
/// fail the session.
pub(super) fn resume_session(shared: &Shared, state: &mut State, name: &str) -> Result<(), String> {
    let Some(sess) = state.sessions.get_mut(name) else {
        return Err(format!("unknown session `{name}`"));
    };
    if !sess.evicted {
        return Ok(());
    }
    // Only a configured checkpoint directory evicts.
    let Some(dir) = shared.config.checkpoint_dir.as_deref() else {
        return Err("no checkpoint directory configured".into());
    };
    let path = checkpoint_path(dir, name);
    let result = SessionCheckpoint::load(&path)
        .map_err(|e| format!("cannot load eviction checkpoint: {e}"))
        .map(|ckpt| {
            let engine = build_engine(shared, &sess.spec);
            attach_spec(shared, &sess.spec, ckpt.resume(engine))
        });
    match result {
        Ok(env) => {
            sess.env = Some(env);
            sess.evicted = false;
            let _ = std::fs::remove_file(&path);
            state.resumes += 1;
            shared.obs.inc("serve.resumes");
            Ok(())
        }
        Err(message) => {
            shared.obs.inc("serve.resume_errors");
            Err(message)
        }
    }
}
