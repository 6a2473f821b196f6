package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/simclock"
)

// resultDigest hashes every field of a collection Result, floats by their
// exact bits, maps in sorted key order: two Results digest equal exactly
// when the run modes' byte-identity promise holds.
func resultDigest(res *core.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "days=%d\n", res.Days)
	series := func(name string, s *simclock.DaySeries) {
		fmt.Fprintf(h, "%s:", name)
		for _, c := range s.Counts {
			fmt.Fprintf(h, " %x", c)
		}
		io.WriteString(h, "\n")
	}
	series("recvSpam", res.ReceiverSpamDaily)
	series("recvFilt", res.ReceiverFilteredDaily)
	series("recvTrue", res.ReceiverTrueDaily)
	series("smtpSpam", res.SMTPSpamDaily)
	series("smtpFilt", res.SMTPFilteredDaily)
	series("smtpTrue", res.SMTPTrueDaily)
	for _, n := range sortedKeys(res.PerDomain) {
		st := res.PerDomain[n]
		fmt.Fprintf(h, "dom %s %s spam=%x filt=%x recv=%x refl=%x smtp=%x freq=%x esc=%x\n",
			n, st.Domain.Name, st.SpamYearly, st.FilteredYearly, st.ReceiverYearly, st.ReflectionYearly,
			st.SMTPTypoYearly, st.SMTPFreqFilteredYearly, st.SpamEscapedYearly)
	}
	for _, n := range sortedKeys(res.SensitiveHeatmap) {
		hm := res.SensitiveHeatmap[n]
		for _, l := range sortedKeys(hm) {
			fmt.Fprintf(h, "heat %s %s %d\n", n, l, hm[l])
		}
	}
	for _, e := range sortedKeys(res.AttachmentExts) {
		fmt.Fprintf(h, "ext %s %d\n", e, res.AttachmentExts[e])
	}
	fmt.Fprintf(h, "persist %x\nepisodes %v\n", res.SMTPPersistence, res.SMTPEpisodeSizes)
	fmt.Fprintf(h, "totals %x %x %x %x %x %x %x %x %x %x\n",
		res.TotalYearly, res.ReceiverCandidateYearly, res.SMTPCandidateYearly,
		res.SurvivorsYearly, res.CorrectedSurvivorsYearly, res.ContaminationYearly,
		res.TrueReceiverYearly, res.ReflectionYearly, res.SMTPTypoYearlyLow, res.SMTPTypoYearlyHigh)
	fmt.Fprintf(h, "vault=%d audit=%x emails=%d\n", res.VaultRecords, res.AuditPrecision, res.EmailsProcessed)
	return hex.EncodeToString(h.Sum(nil))
}

// experimentsDigest hashes every experiment's ID, body and checks.
func experimentsDigest(exps []*experiments.Experiment) string {
	h := sha256.New()
	for _, e := range exps {
		io.WriteString(h, e.String())
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
