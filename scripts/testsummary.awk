# testsummary.awk reads `go test -v ./...` output and prints what a plain
# `go test ./...` prints: one line per package, plus the whole output of
# a package that failed (its "=== RUN" and "--- PASS" lines dropped).
# Every passing top-level test's seconds, package and name go to the
# file named by -v times=FILE, one per line, for `sort -rn`.
#
#	go test -v ./... > out; awk -v times=t -f scripts/testsummary.awk out
/^=== (RUN|PAUSE|CONT|NAME)/ { next }
/^--- PASS: / { pend[++np] = $3 " " substr($4, 2) + 0; next }
/^ *--- (PASS|SKIP): / { next }
/^(ok|\?) / || /^FAIL\t/ {
	if ($1 == "FAIL") printf "%s", buf
	print
	pkg = $2
	sub(/^github\.com\/netsecurelab\/mtasts\/?/, "./", pkg)
	for (i = 1; i <= np; i++) {
		split(pend[i], f, " ")
		printf "%7.2fs  %s %s\n", f[2], pkg, f[1] > times
	}
	np = 0
	buf = ""
	next
}
{ buf = buf $0 "\n" }
END { printf "%s", buf }
