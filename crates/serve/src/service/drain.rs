//! Graceful shutdown: `Drain` runs the backlog dry, then checkpoints and
//! dumps every session and feeds the memory store before the workers stop.
//! Every session's checkpoint goes into one log, `<checkpoint_dir>/
//! drain.ckpt.jsonl`, written with one fsync after the state lock is
//! released.

use super::{drain_log_path, resume_session, Service};
use crate::protocol::Response;
use relm_memory::SessionDigest;
use relm_tune::SessionCheckpoint;

impl Service {
    /// Graceful shutdown: stop admitting, run the backlog dry, checkpoint
    /// every session, then stop the workers.
    ///
    /// With a fleet attached, "run the backlog dry" includes tasks in
    /// reassignment limbo: after admission closes, the center's
    /// [`FleetRouter::drain_assist`] runs every queued or orphaned task
    /// to completion (locally if no live worker will take it) before the
    /// tally below — a draining service never drops a leased task.
    pub(super) fn drain(&self) -> Response {
        let shared = &self.shared;
        {
            let mut state = shared.state.lock().expect("service state poisoned");
            state.draining = true;
        }
        // No state lock held across the router call (lock-ordering rule:
        // the router calls back into `lease_next`/`commit_lease`).
        let router = self.router();
        if let Some(router) = &router {
            router.drain_assist();
        }
        let reassignments = router.map_or(0, |r| r.reassignments());
        let mut state = shared.state.lock().expect("service state poisoned");
        while !state.sched.idle() {
            state = shared.done.wait(state).expect("service state poisoned");
        }
        // Quiescent: every environment is home or evicted to disk. Bring
        // the evicted ones home so the final checkpoint/digest pass sees
        // live environments — the drain report's `resumes` includes
        // these, so `evictions == resumes` holds after a clean drain.
        let evicted: Vec<String> = state
            .sessions
            .values()
            .filter(|s| s.evicted)
            .map(|s| s.name.clone())
            .collect();
        for name in &evicted {
            // A failed resume leaves the session without an environment;
            // the loops below skip it (counted as `serve.resume_errors`).
            let _ = resume_session(shared, &mut state, name);
        }
        // Capture every checkpoint under the lock (a clone each); the log
        // is rendered and written once the lock is released.
        let captured: Vec<(String, SessionCheckpoint)> = match &shared.config.checkpoint_dir {
            Some(_) => state
                .sessions
                .iter()
                .filter_map(|(name, sess)| {
                    let env = sess.env.as_ref()?;
                    Some((name.clone(), SessionCheckpoint::capture(env)))
                })
                .collect(),
            None => Vec::new(),
        };
        // One compact digest per session with completed work, for the
        // memory store below; nothing else reads them.
        let mut digests: Vec<SessionDigest> = Vec::new();
        if shared.config.memory_store.is_some() {
            for sess in state.sessions.values() {
                if let Some(env) = sess.env.as_ref().filter(|env| env.evaluations() > 0) {
                    let digest = SessionDigest::from_env(&sess.workload_label, sess.base_seed, env);
                    digests.push(digest);
                }
            }
        }
        // Freeze every session's flight recorder alongside the
        // checkpoints — the post-mortem record of the whole run.
        let mut flight_dumped = 0usize;
        if let Some(dir) = &shared.config.flightrec_dir {
            for (name, sess) in &state.sessions {
                let dump = sess.flight.dump(name, "drain");
                match relm_obs::save_dump(dir, &dump) {
                    Ok(_) => {
                        flight_dumped += 1;
                        shared.obs.inc("serve.flightrec.dumps");
                    }
                    Err(_) => shared.obs.inc("serve.flightrec.errors"),
                }
            }
        }
        let sessions = state.sessions.len();
        let evaluations = state.evaluations;
        let evictions = state.evictions;
        let resumes = state.resumes;
        let already_stopped = state.stopped;
        state.stopped = true;
        shared.refresh_gauges(&state);
        drop(state);
        // One file and one fsync for every session.
        let mut checkpointed = 0usize;
        if let Some(dir) = &shared.config.checkpoint_dir {
            match SessionCheckpoint::save_log(&drain_log_path(dir), &captured) {
                Ok(()) => {
                    checkpointed = captured.len();
                    shared.obs.add("serve.checkpointed", checkpointed as f64);
                }
                Err(_) => shared.obs.inc("serve.checkpoint_errors"),
            }
        }
        // Merge the digests into the cross-session memory store and
        // persist it — after the state lock is gone (lock-ordering rule:
        // the memory and state locks are never held together). A store
        // that failed to load is absent, so its file is never overwritten.
        if let Some(path) = &shared.config.memory_store {
            if !digests.is_empty() {
                let mut memory = shared.memory.lock().expect("memory store poisoned");
                if let Some(store) = memory.as_mut() {
                    for digest in digests {
                        store.ingest(digest);
                    }
                    if store.save(path).is_err() {
                        shared.obs.inc("memory.save_errors");
                    }
                }
            }
        }
        if !already_stopped {
            shared.work.notify_all();
        }
        Response::Drained {
            sessions,
            evaluations,
            checkpointed,
            flight_dumped,
            reassignments,
            evictions,
            resumes,
        }
    }
}
