package trace

import (
	"fmt"
	"io"
	"strconv"
)

// WriteProm renders the profiles in the Prometheus text exposition format
// (version 0.0.4): one metric family per accounting dimension, one sample
// per registered class, labelled {pkg, class, kind}. Hold and wait
// latencies are exposed summary-style — quantile-labelled gauges plus
// _max and _mean — because the underlying log-linear histograms already
// reduce to quantiles; the process-wide hierarchy-violation counter and
// the per-class live census ride along. This is the scrape target behind
// /debug/machlock/metrics.
func WriteProm(w io.Writer, profiles []Profile) error {
	p := &promWriter{w: w}

	p.family("machlock_acquisitions_total", "Lock acquisitions granted.", "counter")
	p.each(profiles, func(pr Profile) { p.sample("machlock_acquisitions_total", pr, "", float64(pr.Acquisitions)) })

	p.family("machlock_contended_acquisitions_total", "Acquisitions that did not succeed on the first attempt.", "counter")
	p.each(profiles, func(pr Profile) {
		p.sample("machlock_contended_acquisitions_total", pr, "", float64(pr.Contended))
	})

	p.family("machlock_releases_total", "Lock releases.", "counter")
	p.each(profiles, func(pr Profile) { p.sample("machlock_releases_total", pr, "", float64(pr.Releases)) })

	p.family("machlock_contention_ratio", "Contended acquisitions over total acquisitions.", "gauge")
	p.each(profiles, func(pr Profile) { p.sample("machlock_contention_ratio", pr, "", pr.ContentionRate) })

	p.family("machlock_hold_time_ns", "Critical-section hold time quantiles (ns).", "gauge")
	p.each(profiles, func(pr Profile) {
		p.sample("machlock_hold_time_ns", pr, `quantile="0.5"`, float64(pr.P50HoldNs))
		p.sample("machlock_hold_time_ns", pr, `quantile="0.9"`, float64(pr.P90HoldNs))
		p.sample("machlock_hold_time_ns", pr, `quantile="0.99"`, float64(pr.P99HoldNs))
	})
	p.family("machlock_hold_time_ns_mean", "Mean critical-section hold time (ns).", "gauge")
	p.each(profiles, func(pr Profile) { p.sample("machlock_hold_time_ns_mean", pr, "", pr.MeanHoldNs) })
	p.family("machlock_hold_time_ns_max", "Maximum observed hold time (ns).", "gauge")
	p.each(profiles, func(pr Profile) { p.sample("machlock_hold_time_ns_max", pr, "", float64(pr.MaxHoldNs)) })

	p.family("machlock_wait_time_ns", "Lock wait time quantiles (ns).", "gauge")
	p.each(profiles, func(pr Profile) {
		p.sample("machlock_wait_time_ns", pr, `quantile="0.5"`, float64(pr.P50WaitNs))
		p.sample("machlock_wait_time_ns", pr, `quantile="0.9"`, float64(pr.P90WaitNs))
		p.sample("machlock_wait_time_ns", pr, `quantile="0.99"`, float64(pr.P99WaitNs))
	})
	p.family("machlock_wait_time_ns_mean", "Mean lock wait time (ns).", "gauge")
	p.each(profiles, func(pr Profile) { p.sample("machlock_wait_time_ns_mean", pr, "", pr.MeanWaitNs) })
	p.family("machlock_wait_time_ns_max", "Maximum observed wait time (ns).", "gauge")
	p.each(profiles, func(pr Profile) { p.sample("machlock_wait_time_ns_max", pr, "", float64(pr.MaxWaitNs)) })

	p.family("machlock_upgrades_total", "Successful read-to-write upgrades.", "counter")
	p.each(profiles, func(pr Profile) { p.sample("machlock_upgrades_total", pr, "", float64(pr.Upgrades)) })
	p.family("machlock_failed_upgrades_total", "Upgrades that failed and released the read hold.", "counter")
	p.each(profiles, func(pr Profile) { p.sample("machlock_failed_upgrades_total", pr, "", float64(pr.FailedUpgrades)) })
	p.family("machlock_downgrades_total", "Write-to-read downgrades.", "counter")
	p.each(profiles, func(pr Profile) { p.sample("machlock_downgrades_total", pr, "", float64(pr.Downgrades)) })
	p.family("machlock_bias_revocations_total", "Reader-bias revocations by write requests.", "counter")
	p.each(profiles, func(pr Profile) { p.sample("machlock_bias_revocations_total", pr, "", float64(pr.BiasRevocations)) })

	p.family("machlock_ref_clones_total", "Reference clones.", "counter")
	p.each(profiles, func(pr Profile) { p.sample("machlock_ref_clones_total", pr, "", float64(pr.RefClones)) })
	p.family("machlock_ref_releases_total", "Reference releases.", "counter")
	p.each(profiles, func(pr Profile) { p.sample("machlock_ref_releases_total", pr, "", float64(pr.RefReleases)) })
	p.family("machlock_deactivates_total", "Object deactivations (active termination).", "counter")
	p.each(profiles, func(pr Profile) { p.sample("machlock_deactivates_total", pr, "", float64(pr.Deactivates)) })

	p.family("machlock_live_objects", "Live instances per class (census).", "gauge")
	p.each(profiles, func(pr Profile) { p.sample("machlock_live_objects", pr, "", float64(pr.Live)) })

	p.family("machlock_hierarchy_violations_total", "Lock-ordering violations reported by splock.Hierarchy checkers.", "counter")
	p.bare("machlock_hierarchy_violations_total", "", float64(HierarchyViolations()))

	p.ops(OpProfiles())

	return p.err
}

// ops renders the operation-span families: per-op latency with the
// wait/work split the span engine accounts. Labels are {pkg, op}.
func (p *promWriter) ops(ops []OpProfile) {
	opSample := func(name string, o OpProfile, extra string, v float64) {
		if p.err != nil {
			return
		}
		labels := fmt.Sprintf("pkg=%q,op=%q", o.Pkg, o.Name)
		if extra != "" {
			labels += "," + extra
		}
		_, p.err = fmt.Fprintf(p.w, "%s{%s} %s\n", name, labels, promFloat(v))
	}

	p.family("machlock_op_total", "Completed operation spans.", "counter")
	for _, o := range ops {
		opSample("machlock_op_total", o, "", float64(o.Count))
	}
	p.family("machlock_op_contended_total", "Operation spans that waited on at least one lock.", "counter")
	for _, o := range ops {
		opSample("machlock_op_contended_total", o, "", float64(o.Contended))
	}
	p.family("machlock_op_latency_ns", "Operation latency quantiles (ns).", "gauge")
	for _, o := range ops {
		opSample("machlock_op_latency_ns", o, `quantile="0.5"`, float64(o.P50Ns))
		opSample("machlock_op_latency_ns", o, `quantile="0.9"`, float64(o.P90Ns))
		opSample("machlock_op_latency_ns", o, `quantile="0.99"`, float64(o.P99Ns))
	}
	p.family("machlock_op_latency_ns_mean", "Mean operation latency (ns).", "gauge")
	for _, o := range ops {
		opSample("machlock_op_latency_ns_mean", o, "", float64(o.MeanNs))
	}
	p.family("machlock_op_latency_ns_max", "Maximum observed operation latency (ns).", "gauge")
	for _, o := range ops {
		opSample("machlock_op_latency_ns_max", o, "", float64(o.MaxNs))
	}
	p.family("machlock_op_lock_wait_ns", "In-span lock wait quantiles (ns).", "gauge")
	for _, o := range ops {
		opSample("machlock_op_lock_wait_ns", o, `quantile="0.5"`, float64(o.P50WaitNs))
		opSample("machlock_op_lock_wait_ns", o, `quantile="0.9"`, float64(o.P90WaitNs))
		opSample("machlock_op_lock_wait_ns", o, `quantile="0.99"`, float64(o.P99WaitNs))
	}
	p.family("machlock_op_work_ns", "In-span work (latency minus lock wait) quantiles (ns).", "gauge")
	for _, o := range ops {
		opSample("machlock_op_work_ns", o, `quantile="0.5"`, float64(o.P50WorkNs))
		opSample("machlock_op_work_ns", o, `quantile="0.9"`, float64(o.P90WorkNs))
		opSample("machlock_op_work_ns", o, `quantile="0.99"`, float64(o.P99WorkNs))
	}
}

// promWriter accumulates the exposition, sticky-erroring so the families
// above stay uncluttered.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) family(name, help, typ string) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promWriter) each(profiles []Profile, f func(Profile)) {
	for _, pr := range profiles {
		if p.err != nil {
			return
		}
		f(pr)
	}
}

// sample writes one class-labelled sample; extra is an additional label
// pair (e.g. a quantile) or "".
func (p *promWriter) sample(name string, pr Profile, extra string, v float64) {
	if p.err != nil {
		return
	}
	labels := fmt.Sprintf("pkg=%q,class=%q,kind=%q", pr.Pkg, pr.Name, pr.Kind.String())
	if extra != "" {
		labels += "," + extra
	}
	_, p.err = fmt.Fprintf(p.w, "%s{%s} %s\n", name, labels, promFloat(v))
}

// bare writes one sample with only the given (possibly empty) label set.
func (p *promWriter) bare(name, labels string, v float64) {
	if p.err != nil {
		return
	}
	if labels != "" {
		labels = "{" + labels + "}"
	}
	_, p.err = fmt.Fprintf(p.w, "%s%s %s\n", name, labels, promFloat(v))
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
