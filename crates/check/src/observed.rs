//! A transparent [`RankProgram`] wrapper that journals protocol traffic.
//!
//! The request-ledger oracle (see [`crate::oracles::request_ledger`])
//! needs the *full multiset* of matching messages each rank received —
//! information the engines deliberately do not retain. Wrapping each
//! [`DistMatching`] in an [`ObservedMatching`] records every inbound
//! `(src, msg)` pair before delegating, without perturbing the protocol
//! in any way: the wrapper forwards the same inbox, context, and status.

use cmg_matching::{DistMatching, MatchMsg};
use cmg_runtime::{Rank, RankCtx, RankProgram, Status};

/// [`DistMatching`] plus a journal of every message the rank received.
pub struct ObservedMatching {
    /// The wrapped rank program.
    pub inner: DistMatching,
    /// Every `(source rank, message)` delivered to this rank, in
    /// delivery order.
    pub received: Vec<(Rank, MatchMsg)>,
}

impl ObservedMatching {
    /// Wraps a matching program for journaled execution.
    pub fn new(inner: DistMatching) -> Self {
        ObservedMatching {
            inner,
            received: Vec::new(),
        }
    }
}

impl RankProgram for ObservedMatching {
    type Msg = MatchMsg;
    // Delegate the snapshot to the wrapped program; the journal rides in
    // the meta so an oracle roundtrip does not lose received messages.
    type Record = <DistMatching as RankProgram>::Record;
    type Meta = (<DistMatching as RankProgram>::Meta, Vec<(Rank, MatchMsg)>);

    fn snapshot(&self) -> Vec<Self::Record> {
        self.inner.snapshot()
    }

    fn restore(meta: Self::Meta, snap: Vec<Self::Record>) -> Self {
        let (inner_meta, received) = meta;
        ObservedMatching {
            inner: DistMatching::restore(inner_meta, snap),
            received,
        }
    }

    fn meta(&self) -> Self::Meta {
        (self.inner.meta(), self.received.clone())
    }

    fn on_start(&mut self, ctx: &mut RankCtx<MatchMsg>) -> Status {
        self.inner.on_start(ctx)
    }

    fn on_round(
        &mut self,
        inbox: &mut Vec<(Rank, Vec<MatchMsg>)>,
        ctx: &mut RankCtx<MatchMsg>,
    ) -> Status {
        for (src, msgs) in inbox.iter() {
            for msg in msgs {
                self.received.push((*src, *msg));
            }
        }
        self.inner.on_round(inbox, ctx)
    }
}
