//! Session residency: checkpointing idle sessions out to disk, the
//! evaluation-count sweep that picks them, and the transparent resume
//! that brings them home.

use super::{attach_spec, build_engine, GuidedState, Shared, State};
use relm_tune::{SessionCheckpoint, TuningEnv};

/// Checkpoints one idle session to `<dir>/<name>.evict.json` and unloads
/// its environment (and the memory-heavy part of its guided state). On
/// any failure the session is left exactly as it was, environment home.
pub(super) fn evict_one_locked(
    shared: &Shared,
    state: &mut State,
    name: &str,
) -> Result<String, String> {
    let Some(dir) = shared.config.evict_dir() else {
        return Err("no eviction directory configured (set evict_dir or checkpoint_dir)".into());
    };
    let path = dir.join(format!("{name}.evict.json"));
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
    // The restored environment's cache-hit counter and Table-6 aggregate
    // restart empty; bank what's accrued so the mirror stays monotone and
    // the drained digest stays whole.
    sess.frozen_stats = env.stats_accumulator().clone();
    sess.env = None;
    sess.evalcache_hits_base = sess.evalcache_hits;
    sess.frozen_guided = sess.guided.take().map(GuidedState::freeze);
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
    if window == 0 || shared.config.evict_dir().is_none() {
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

/// Brings an evicted session home: loads its eviction checkpoint,
/// rebuilds the engine from the retained spec, restores the environment
/// (byte-identical history and seed chain — the [`SessionCheckpoint`]
/// resume guarantee), re-applies the spec's retry policy, cache
/// attachment and banked Table-6 aggregate (which `restore` resets),
/// replays the guided fit schedule, and deletes the checkpoint file.
/// No-op for live sessions. On error the session stays evicted and
/// `serve.resume_errors` counts it; the caller decides whether to fail
/// the session.
pub(super) fn resume_session(shared: &Shared, state: &mut State, name: &str) -> Result<(), String> {
    let Some(sess) = state.sessions.get_mut(name) else {
        return Err(format!("unknown session `{name}`"));
    };
    if !sess.evicted {
        return Ok(());
    }
    let result = (|| -> Result<(TuningEnv, Option<GuidedState>), String> {
        let dir = shared
            .config
            .evict_dir()
            .ok_or_else(|| "no eviction directory configured".to_string())?;
        let path = dir.join(format!("{name}.evict.json"));
        let ckpt = SessionCheckpoint::load(&path)
            .map_err(|e| format!("cannot load eviction checkpoint: {e}"))?;
        let engine = build_engine(shared, &sess.spec);
        let env = attach_spec(shared, &sess.spec, ckpt.resume(engine));
        let guided = match &sess.frozen_guided {
            Some(frozen) => Some(
                frozen
                    .thaw(&sess.prior, &sess.space, sess.guided_seed, env.history())
                    .map_err(|e| format!("guided rebuild failed: {e}"))?,
            ),
            None => None,
        };
        Ok((env, guided))
    })();
    match result {
        Ok((env, guided)) => {
            if guided.is_some() {
                sess.guided = guided;
            }
            sess.frozen_guided = None;
            sess.env = Some(env.with_stats_accumulator(std::mem::take(&mut sess.frozen_stats)));
            sess.evicted = false;
            if let Some(dir) = shared.config.evict_dir() {
                let _ = std::fs::remove_file(dir.join(format!("{name}.evict.json")));
            }
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
