//! One module per paper table/figure (see the experiment index in
//! DESIGN.md):
//!
//! | module | reproduces |
//! |---|---|
//! | [`structure`] | Table I (HMC generations), Table II (packet flits) |
//! | [`bandwidth`] | Fig 6 (mask sweep), Fig 7 (patterns × ro/rw/wo), Fig 8 (request sizes + MRPS) |
//! | [`thermal`] | Table III, Fig 9 (temperature), Fig 10 (power), Fig 11 (regressions), Fig 12 (cooling power) |
//! | [`page_policy`] | Fig 13 (linear vs random × size) + the open-page ablation |
//! | [`latency`] | Fig 14 (TX deconstruction), Fig 15 (low-load), Fig 16 (high-load), Figs 17/18 (latency–bandwidth) |
//! | [`baseline`] | the DDR DIMM comparison (packet-interface latency premium, bus ceiling) |
//! | [`ablation`] | the design-knob sweeps: bank-queue depth, write-drain rate, packet overhead |
//! | [`read_ratio`] | the 53–66 % optimal-read-ratio result of the related OpenHMC/HMCSim studies |
//! | [`mapping`] | the Address Mapping Mode Register ablation (field order × block size) |
//! | [`kernels`] | the application building blocks the paper's intro motivates (scan/hot-spot/chase/gather) |
//! | [`faults`] | link bit-error injection: the cost of the packet-integrity machinery doing work |
//! | [`generations`] | the Table I geometries re-measured, including the then-unreleased HMC 2.0 |
//! | [`chain`] | multi-cube chains: aggregate scaling, per-hop latency adders, near/far asymmetry |
//! | [`openloop`] | open-loop multi-tenant overload: throughput–latency curves, shed policies, SLO conformance |

pub mod ablation;
pub mod bandwidth;
pub mod baseline;
pub mod chain;
pub mod faults;
pub mod generations;
pub mod kernels;
pub mod latency;
pub mod mapping;
pub mod openloop;
pub mod page_policy;
pub mod read_ratio;
pub mod structure;
pub mod thermal;
