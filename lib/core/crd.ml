(** Commutativity race detection — public umbrella.

    This module re-exports the whole library surface under one name, so
    applications can [open Crd] (or use [Crd.X]) without tracking the
    individual sub-libraries:

    - values, identities, clocks: {!Value}, {!Tid}, {!Obj_id}, {!Lock_id},
      {!Mem_loc}, {!Prng}, {!Vclock}, and the {!Varint} integer encoding;
    - traces and happens-before: {!Action}, {!Event}, {!Trace},
      {!Trace_text}, the binary {!Wire} codec and its {!Bigwire} decoder,
      {!Hb};
    - specification logic: {!Atom}, {!Formula}, {!Ecl}, {!Signature},
      {!Spec}, the surface-syntax {!Spec_parser} and built-in
      {!Stdspecs};
    - access points: {!Point}, {!Residual}, {!Translate}, {!Repr};
    - detectors: {!Rd2}, {!Direct}, {!Report} (commutativity),
      {!Fasttrack}, {!Djit}, {!Rw_report} (read-write);
    - semantics and validation: {!Model}, {!Models}, {!Soundness};
    - the execution substrate: {!Sched}, {!Monitored};
    - and the end-to-end {!Analyzer}, the one streaming engine (one
      domain or sharded over several), {!Shard}, its whole-trace
      wrapper, and {!Predict}, the offline predictive pass over
      sync-preserving reorderings. *)

module Value = Crd_base.Value
module Tid = Crd_base.Tid
module Obj_id = Crd_base.Obj_id
module Lock_id = Crd_base.Lock_id
module Mem_loc = Crd_base.Mem_loc
module Prng = Crd_base.Prng
module Varint = Crd_base.Varint
module Vclock = Crd_vclock.Vclock
module Action = Crd_trace.Action
module Event = Crd_trace.Event
module Trace = Crd_trace.Trace
module Trace_text = Crd_trace.Trace_text
module Wire = Crd_wire.Codec
module Bigwire = Crd_wire.Bigcodec
module Hb = Crd_trace.Hb
module Atom = Crd_spec.Atom
module Formula = Crd_spec.Formula
module Ecl = Crd_spec.Ecl
module Signature = Crd_spec.Signature
module Spec = Crd_spec.Spec
module Spec_parser = Crd_spec_parser.Parser
module Stdspecs = Crd_stdspecs.Stdspecs
module Point = Crd_apoint.Point
module Residual = Crd_apoint.Residual
module Translate = Crd_apoint.Translate
module Repr = Crd_apoint.Repr
module Report = Crd_detector.Report
module Rd2 = Crd_detector.Rd2
module Direct = Crd_detector.Direct
module Rw_report = Crd_fasttrack.Rw_report
module Fasttrack = Crd_fasttrack.Fasttrack
module Djit = Crd_fasttrack.Djit
module Model = Crd_semantics.Model
module Models = Crd_semantics.Models
module Soundness = Crd_semantics.Soundness
module Sched = Crd_runtime.Sched
module Monitored = Crd_runtime.Monitored
module Atomicity = Crd_atomicity.Atomicity
module Predict = Crd_predict.Predict
module Analyzer = Analyzer
module Shard = Shard
