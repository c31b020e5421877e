//! The client protocol, sans-IO: every operation a client can ask of
//! the service is defined here exactly once, as the request
//! [`Message`] to send plus a classifier that picks the reply out of
//! whatever else arrives and turns it into the operation's result.
//!
//! [`Client`](super::Client) drives these definitions over a real
//! transport and the wall clock, [`SimDeployment`](super::SimDeployment)
//! over the simulated network in virtual time. Neither matches on
//! reply messages itself, so "which message answers which request,
//! and what result it means" is decided in this module only. The
//! server side has one home too: both drive their servers through the
//! same engine table (`runtime/engine.rs`).

use crate::model::{
    LocationDescriptor, LsError, NeighborAnswer, ObjectId, RangeAnswer, RangeQuery, Sighting,
};
use crate::proto::Message;
use hiloc_geo::Point;
use hiloc_net::{CorrId, Endpoint, ServerId};
use std::collections::VecDeque;

/// What an operation concludes once its reply is in.
pub(crate) type Reply<R> = Result<R, LsError>;

/// A reply classifier: `None` for a message that is not the
/// operation's reply (the driver keeps it for a later operation),
/// `Some(result)` for the reply — which it may gut (`mem::take`) to
/// move the payload out, so the driver discards a classified message.
/// (An alias for the closure signature; nothing else implements it.)
pub(crate) trait Classify<R>: Fn(&mut Message) -> Option<Reply<R>> {}

impl<R, F: Fn(&mut Message) -> Option<Reply<R>>> Classify<R> for F {}

/// One client operation: the request to send and the classifier that
/// recognises its reply.
pub(crate) struct Op<F> {
    pub(crate) request: Message,
    pub(crate) classify: F,
}

/// Removes the first queued message `classify` accepts and returns
/// its result; messages it declines stay queued in order.
pub(crate) fn take_reply<R>(
    queue: &mut VecDeque<Message>,
    classify: &impl Classify<R>,
) -> Option<Reply<R>> {
    let (idx, reply) =
        queue.iter_mut().enumerate().find_map(|(i, m)| classify(m).map(|r| (i, r)))?;
    queue.remove(idx);
    Some(reply)
}

/// The outcome of a position update, as seen by the tracked object.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOutcome {
    /// The update was applied by the current agent.
    Ack {
        /// Currently offered accuracy.
        offered_acc_m: f64,
    },
    /// A handover occurred; the object has a new agent.
    NewAgent {
        /// The new agent leaf.
        agent: ServerId,
        /// Accuracy offered by the new agent.
        offered_acc_m: f64,
    },
    /// The object left the service area and was deregistered.
    OutOfServiceArea,
}

/// `register` (paper §3.1) → `(agent, offeredAcc)`, or
/// [`LsError::AccuracyUnavailable`]. Replies go to `registrant`.
pub(crate) fn register(
    sighting: Sighting,
    des_acc_m: f64,
    min_acc_m: f64,
    max_speed_mps: f64,
    registrant: Endpoint,
    corr: CorrId,
) -> Op<impl Classify<(ServerId, f64)>> {
    Op {
        request: Message::RegisterReq {
            sighting,
            des_acc_m,
            min_acc_m,
            max_speed_mps,
            registrant,
            corr,
        },
        classify: move |m: &mut Message| match m {
            Message::RegisterRes { agent, offered_acc_m, corr: c } if *c == corr => {
                Some(Ok((*agent, *offered_acc_m)))
            }
            Message::RegisterFailed { server, achievable_m, corr: c } if *c == corr => {
                Some(Err(LsError::AccuracyUnavailable {
                    server: *server,
                    achievable_m: *achievable_m,
                }))
            }
            _ => None,
        },
    }
}

/// Position update to the object's agent. The answer carries no
/// correlation id; it is matched by object id.
pub(crate) fn update(sighting: Sighting) -> Op<impl Classify<UpdateOutcome>> {
    let oid = sighting.oid;
    Op {
        request: Message::UpdateReq { sighting },
        classify: move |m: &mut Message| match m {
            Message::UpdateAck { oid: o, offered_acc_m, .. } if *o == oid => {
                Some(Ok(UpdateOutcome::Ack { offered_acc_m: *offered_acc_m }))
            }
            Message::AgentChanged { oid: o, new_agent, offered_acc_m } if *o == oid => {
                Some(Ok(UpdateOutcome::NewAgent {
                    agent: *new_agent,
                    offered_acc_m: *offered_acc_m,
                }))
            }
            Message::OutOfServiceArea { oid: o } if *o == oid => {
                Some(Ok(UpdateOutcome::OutOfServiceArea))
            }
            _ => None,
        },
    }
}

/// Coalesced updates in one envelope → the `(object, offered
/// accuracy)` pairs applied in place.
pub(crate) fn update_batch(
    sightings: Vec<Sighting>,
    corr: CorrId,
) -> Op<impl Classify<Vec<(ObjectId, f64)>>> {
    Op {
        request: Message::UpdateBatch { sightings, corr },
        classify: move |m: &mut Message| match m {
            Message::UpdateBatchAck { acks, corr: c, .. } if *c == corr => {
                Some(Ok(std::mem::take(acks)))
            }
            _ => None,
        },
    }
}

/// `posQuery` (paper §3.2), or [`LsError::UnknownObject`].
pub(crate) fn pos_query(oid: ObjectId, corr: CorrId) -> Op<impl Classify<LocationDescriptor>> {
    Op {
        request: Message::PosQueryReq { oid, corr },
        classify: move |m: &mut Message| match m {
            Message::PosQueryRes { found, corr: c, .. } if *c == corr => {
                Some((*found).ok_or(LsError::UnknownObject(oid)))
            }
            _ => None,
        },
    }
}

/// `rangeQuery` (paper §3.2); a timed-out gather still answers, with
/// `complete == false`.
pub(crate) fn range_query(query: RangeQuery, corr: CorrId) -> Op<impl Classify<RangeAnswer>> {
    Op {
        request: Message::RangeQueryReq { query, corr },
        classify: move |m: &mut Message| match m {
            Message::RangeQueryRes { items, complete, corr: c } if *c == corr => {
                Some(Ok(RangeAnswer { objects: std::mem::take(items), complete: *complete }))
            }
            _ => None,
        },
    }
}

/// `neighborQuery` (paper §3.2).
pub(crate) fn neighbor_query(
    p: Point,
    req_acc_m: f64,
    near_qual_m: f64,
    corr: CorrId,
) -> Op<impl Classify<NeighborAnswer>> {
    Op {
        request: Message::NeighborQueryReq { p, req_acc_m, near_qual_m, corr },
        classify: move |m: &mut Message| match m {
            Message::NeighborQueryRes { nearest, near_set, complete, corr: c } if *c == corr => {
                Some(Ok(NeighborAnswer {
                    nearest: *nearest,
                    near_set: std::mem::take(near_set),
                    complete: *complete,
                }))
            }
            _ => None,
        },
    }
}

/// `deregister` (paper §3.1): fire-and-forget, there is no reply.
pub(crate) fn deregister(oid: ObjectId) -> Message {
    Message::DeregisterReq { oid }
}

/// `changeAcc` (paper §3.1) → `(ok, offeredAcc)`.
pub(crate) fn change_acc(
    oid: ObjectId,
    des_acc_m: f64,
    min_acc_m: f64,
    corr: CorrId,
) -> Op<impl Classify<(bool, f64)>> {
    Op {
        request: Message::ChangeAccReq { oid, des_acc_m, min_acc_m, corr },
        classify: move |m: &mut Message| match m {
            Message::ChangeAccRes { ok, offered_acc_m, corr: c, .. } if *c == corr => {
                Some(Ok((*ok, *offered_acc_m)))
            }
            _ => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reply_picks_the_match_and_keeps_the_rest_in_order() {
        let oid = ObjectId(4);
        let stray = |corr| Message::RangeQueryRes { items: vec![], complete: true, corr };
        let mut q: VecDeque<Message> = VecDeque::from([
            stray(CorrId(1)),
            Message::PosQueryRes {
                oid,
                found: None,
                time_us: 0,
                max_speed_mps: 0.0,
                corr: CorrId(2),
            },
            stray(CorrId(3)),
        ]);
        let op = pos_query(oid, CorrId(2));
        assert_eq!(take_reply(&mut q, &op.classify), Some(Err(LsError::UnknownObject(oid))));
        assert_eq!(q, VecDeque::from([stray(CorrId(1)), stray(CorrId(3))]));
        assert_eq!(take_reply(&mut q, &op.classify), None);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn update_reply_is_matched_by_object_not_by_order() {
        let s = |o| Sighting::new(ObjectId(o), 0, Point::new(1.0, 1.0), 5.0);
        let ack = |o| Message::UpdateAck { oid: ObjectId(o), offered_acc_m: 9.0, time_us: 0 };
        let mut q = VecDeque::from([ack(1), Message::OutOfServiceArea { oid: ObjectId(2) }]);
        let got = take_reply(&mut q, &update(s(2)).classify);
        assert_eq!(got, Some(Ok(UpdateOutcome::OutOfServiceArea)));
        assert_eq!(q, VecDeque::from([ack(1)]));
    }
}
