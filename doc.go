// Package falcon is a from-scratch Go reproduction of "Falcon: A Reliable,
// Low Latency Hardware Transport" (SIGCOMM 2025): the Falcon transport
// protocol (transaction layer, packet delivery layer, adaptive engine),
// the RDMA and NVMe ULPs above it, the RoCE and software-transport
// baselines beside it, and the discrete-event datacenter fabric beneath.
//
// See README.md for the architecture overview, DESIGN.md for the system
// inventory and per-experiment index, and EXPERIMENTS.md for
// paper-vs-measured results. The libraries live under internal/; the
// cmd/falconbench binary regenerates every table and figure of the paper's
// evaluation, and the bench/ module measures the simulator itself.
package falcon
