package kin

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// This file keeps the composed-pose kinematics the one-pass kernel
// replaced, as bit-exact oracles: refLinkTransform and refForward build
// and compose a full DH pose per link, and refSolve/refSolveFrom are the
// two-pass DLS solver (one Forward in the residual, a second chain walk
// in the Jacobian). The kernel must match them in every bit.

// refLinkTransform returns the DH transform for link l at joint value
// theta.
func refLinkTransform(l DHLink, theta float64) geom.Pose {
	th := theta + l.Offset
	ct, st := math.Cos(th), math.Sin(th)
	ca, sa := math.Cos(l.Alpha), math.Sin(l.Alpha)
	r := geom.Mat3{M: [3][3]float64{
		{ct, -st * ca, st * sa},
		{st, ct * ca, -ct * sa},
		{0, sa, ca},
	}}
	t := geom.V(l.A*ct, l.A*st, l.D)
	return geom.Pose{R: r, T: t}
}

// refJointFrames returns every joint frame's pose, base first and end
// effector last, by composing the link transforms.
func refJointFrames(c *Chain, q []float64) []geom.Pose {
	cur := c.Base
	out := []geom.Pose{cur}
	for i, l := range c.Links {
		cur = cur.Compose(refLinkTransform(l, q[i]))
		out = append(out, cur)
	}
	return out
}

func refForward(c *Chain, q []float64) geom.Pose {
	cur := c.Base
	for i, l := range c.Links {
		cur = cur.Compose(refLinkTransform(l, q[i]))
	}
	return cur
}

// refFallbacks counts refSolve calls that took the orientation
// fallback (no seed converged with the tool-down preference).
var refFallbacks int

// refSolve is Solve over refSolveFrom.
func refSolve(c *Chain, target geom.Vec3, q0 []float64, opt IKOptions) ([]float64, error) {
	if len(q0) != len(c.Links) {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrDOFMismatch, len(q0), len(c.Links))
	}
	if !target.IsFinite() {
		return nil, fmt.Errorf("%w: non-finite target %v", ErrUnreachable, target)
	}
	if target.Dist(c.Base.T) > c.Reach()+opt.Tol {
		return nil, fmt.Errorf("%w: target %v is %.3f m from base, reach is %.3f m",
			ErrUnreachable, target, target.Dist(c.Base.T), c.Reach())
	}
	n := len(c.Links)
	sc := newIKScratch(n, opt)
	seed := make([]float64, n)
	var best []float64
	var bestFail []float64
	bestScore := math.Inf(1)
	bestPosErr := math.Inf(1)
	for r := 0; r <= opt.Restarts; r++ {
		if r == 0 {
			copy(seed, q0)
		} else {
			for i, l := range c.Links {
				span := l.MaxAngle - l.MinAngle
				frac := math.Mod(0.318*float64(r)+0.618*float64(i+1), 1.0)
				seed[i] = l.MinAngle + span*frac
			}
		}
		q, posErr, axErr := refSolveFrom(c, target, seed, opt, sc)
		if posErr > opt.Tol {
			if posErr < bestPosErr {
				bestPosErr = posErr
				if opt.OrientWeight > 0 {
					bestFail = append(bestFail[:0], q...)
				}
			}
			continue
		}
		score := axErr
		if score < bestScore {
			bestScore = score
			best = append(best[:0], q...)
			bestPosErr = posErr
		}
		if opt.OrientWeight == 0 || score < 0.1 {
			break
		}
	}
	if best == nil {
		if opt.OrientWeight > 0 {
			refFallbacks++
			bare := opt
			bare.OrientWeight = 0
			scBare := newIKScratch(n, bare)
			q, posErr, _ := refSolveFrom(c, target, q0, bare, scBare)
			if posErr <= bare.Tol {
				return append([]float64(nil), q...), nil
			}
			if bestFail != nil {
				q, posErr, _ = refSolveFrom(c, target, bestFail, bare, scBare)
				if posErr <= bare.Tol {
					return append([]float64(nil), q...), nil
				}
			}
			return refSolve(c, target, q0, bare)
		}
		return nil, fmt.Errorf("%w: best residual %.4f m > tol %.4f m for target %v",
			ErrUnreachable, bestPosErr, opt.Tol, target)
	}
	return best, nil
}

// refSolveFrom is the two-pass DLS descent: the residual runs refForward
// and the Jacobian walks the chain again at the same configuration.
func refSolveFrom(c *Chain, target geom.Vec3, seed []float64, opt IKOptions, sc *ikScratch) ([]float64, float64, float64) {
	n := len(c.Links)
	q := sc.q
	copy(q, seed)
	lambda2 := opt.Lambda * opt.Lambda
	useOrient := opt.OrientWeight > 0 && opt.ToolAxis.Norm() > 0
	rows := 3
	if useOrient {
		rows = 6
	}
	want := opt.ToolAxis.Unit()
	residual := func(q []float64) ([]float64, float64, float64) {
		pose := refForward(c, q)
		e := sc.e
		pe := target.Sub(pose.T)
		e[0], e[1], e[2] = pe.X, pe.Y, pe.Z
		axErr := 0.0
		if useOrient {
			axis := pose.R.Col(2)
			diff := want.Sub(axis)
			axErr = math.Acos(math.Max(-1, math.Min(1, axis.Dot(want))))
			e[3] = opt.OrientWeight * diff.X
			e[4] = opt.OrientWeight * diff.Y
			e[5] = opt.OrientWeight * diff.Z
		}
		return e, pe.Norm(), axErr
	}
	e, posErr, axErr := residual(q)
	for iter := 0; iter < opt.MaxIters && (posErr > opt.Tol || (useOrient && axErr > 0.05 && iter < opt.MaxIters/2)); iter++ {
		j := refTaskJacobian(c, q, rows, opt.OrientWeight, sc)
		jjt := sc.jjt
		for r := 0; r < rows; r++ {
			for s := 0; s < rows; s++ {
				var sum float64
				for k := 0; k < n; k++ {
					sum += j[r][k] * j[s][k]
				}
				jjt[r][s] = sum
			}
			jjt[r][r] += lambda2
		}
		w, ok := solveLinearInto(jjt, e, sc.aug, sc.w)
		if !ok {
			break
		}
		for k := 0; k < n; k++ {
			var dq float64
			for r := 0; r < rows; r++ {
				dq += j[r][k] * w[r]
			}
			q[k] += dq
		}
		c.clampJointsInPlace(q)
		e, posErr, axErr = residual(q)
	}
	return q, posErr, axErr
}

func refTaskJacobian(c *Chain, q []float64, rows int, orientWeight float64, sc *ikScratch) [][]float64 {
	n := len(c.Links)
	j := sc.j
	cur := c.Base
	origins, axes := sc.orig, sc.axes
	for i, l := range c.Links {
		origins[i] = cur.T
		axes[i] = cur.R.Col(2)
		cur = cur.Compose(refLinkTransform(l, q[i]))
	}
	ee := cur.T
	tool := cur.R.Col(2)
	for i := 0; i < n; i++ {
		col := axes[i].Cross(ee.Sub(origins[i]))
		j[0][i], j[1][i], j[2][i] = col.X, col.Y, col.Z
		if rows == 6 {
			av := axes[i].Cross(tool)
			j[3][i] = orientWeight * av.X
			j[4][i] = orientWeight * av.Y
			j[5][i] = orientWeight * av.Z
		}
	}
	return j
}

// oracleBase is the mounting pose the oracle tests use: rotated about
// every axis and translated, so no rotation entry is a trivial 0 or 1.
func oracleBase() geom.Pose {
	return geom.Pose{R: geom.RPY(0.3, -0.2, 1.1), T: geom.V(0.41, -0.27, 0.13)}
}

func sameVec(a, b geom.Vec3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

func samePose(a, b geom.Pose) bool {
	for i := 0; i < 3; i++ {
		if !sameVec(a.R.Col(i), b.R.Col(i)) {
			return false
		}
	}
	return sameVec(a.T, b.T)
}

// checkForwardMatchesReference compares Forward and JointOriginsInto with
// the composed-pose reference at q, bit for bit.
func checkForwardMatchesReference(t testing.TB, c *Chain, q []float64, pts []geom.Vec3) []geom.Vec3 {
	t.Helper()
	frames := refJointFrames(c, q)
	got, err := c.Forward(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := frames[len(frames)-1]; !samePose(got, want) {
		t.Fatalf("%s Forward(%v) = %+v, reference %+v", c.Name, q, got, want)
	}
	pts, err = c.JointOriginsInto(q, pts)
	if err != nil {
		t.Fatal(err)
	}
	for k, f := range frames {
		if !sameVec(pts[k], f.T) {
			t.Fatalf("%s JointOriginsInto(%v)[%d] = %v, reference %v", c.Name, q, k, pts[k], f.T)
		}
	}
	return pts
}

func TestForwardMatchesReferenceBitForBit(t *testing.T) {
	perModel := 20_000 // 100k configurations over the five profiles
	if testing.Short() {
		perModel = 2_000
	}
	rng := rand.New(rand.NewSource(1))
	for _, m := range allModels() {
		c := mustProfile(t, m, oracleBase()).Chain
		q := make([]float64, c.DOF())
		var pts []geom.Vec3
		for k := 0; k < perModel; k++ {
			for i, l := range c.Links {
				q[i] = l.MinAngle + rng.Float64()*(l.MaxAngle-l.MinAngle)
			}
			pts = checkForwardMatchesReference(t, c, q, pts)
		}
	}
}

// TestSincosMatchesSinCos pins the identity linkStep relies on: one
// math.Sincos gives the same bits as math.Sin and math.Cos across (and
// beyond) every profile's joint range plus offset.
func TestSincosMatchesSinCos(t *testing.T) {
	check := func(x float64) {
		s, c := math.Sincos(x)
		if math.Float64bits(s) != math.Float64bits(math.Sin(x)) ||
			math.Float64bits(c) != math.Float64bits(math.Cos(x)) {
			t.Fatalf("Sincos(%v) = (%v, %v), Sin/Cos = (%v, %v)", x, s, c, math.Sin(x), math.Cos(x))
		}
	}
	const lim = 2*twoPi + math.Pi/2
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 1_000_000; k++ {
		check((rng.Float64()*2 - 1) * lim)
	}
	// Octant boundaries of the argument reduction, and their neighbours.
	for k := -20; k <= 20; k++ {
		x := float64(k) * math.Pi / 4
		check(x)
		check(math.Nextafter(x, math.Inf(1)))
		check(math.Nextafter(x, math.Inf(-1)))
	}
}

// ikOracleTargets returns a seeded target mix for one chain: FK images
// of random configurations (five in eight: reachable, often only
// without the tool-down preference), points scattered through the reach
// sphere (two in eight: reachable, fallback or unreachable after every
// schedule), and points beyond reach (one in eight: the early reject).
func ikOracleTargets(c *Chain, rng *rand.Rand, n int) []geom.Vec3 {
	out := make([]geom.Vec3, 0, n)
	q := make([]float64, c.DOF())
	reach := c.Reach()
	dir := func() geom.Vec3 {
		return geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Unit()
	}
	for len(out) < n {
		switch len(out) % 8 {
		case 5, 6:
			out = append(out, c.Base.T.Add(dir().Scale(reach*rng.Float64())))
		case 7:
			out = append(out, c.Base.T.Add(dir().Scale(reach*(1.01+0.2*rng.Float64()))))
		default:
			for i, l := range c.Links {
				q[i] = l.MinAngle + rng.Float64()*(l.MaxAngle-l.MinAngle)
			}
			p, _ := c.Forward(q)
			out = append(out, p.T)
		}
	}
	return out
}

func TestSolveMatchesTwoPassReference(t *testing.T) {
	perChain := 64
	if testing.Short() {
		perChain = 20
	}
	rng := rand.New(rand.NewSource(4))
	opt := DefaultIKOptions()
	var solves, errs int
	refFallbacks = 0
	for _, m := range allModels() {
		p := mustProfile(t, m, oracleBase())
		c := p.Chain
		for _, target := range ikOracleTargets(c, rng, perChain) {
			q0 := p.Home
			if rng.Intn(2) == 0 {
				q0 = p.Sleep
			}
			got, gotErr := c.Solve(target, q0, opt)
			want, wantErr := refSolve(c, target, q0, opt)
			solves++
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("%s Solve(%v): error %v, reference error %v", c.Name, target, gotErr, wantErr)
			}
			if gotErr != nil {
				errs++
				if gotErr.Error() != wantErr.Error() {
					t.Fatalf("%s Solve(%v): error %q, reference %q", c.Name, target, gotErr, wantErr)
				}
				continue
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s Solve(%v) = %v, reference %v", c.Name, target, got, want)
				}
			}
		}
	}
	t.Logf("%d solves matched the two-pass reference: %d errors, %d orientation fallbacks", solves, errs, refFallbacks)
	if errs == 0 || errs == solves || refFallbacks == 0 {
		t.Errorf("target mix does not cover every branch: %d solves, %d errors, %d fallbacks", solves, errs, refFallbacks)
	}
}

// FuzzForwardMatchesReference fuzzes the one-pass kernel against the
// composed-pose reference: any model, any mounting pose, any joint
// vector (wrapped into ±2 turns, the range trajectories and IK visit).
func FuzzForwardMatchesReference(f *testing.F) {
	f.Add(uint8(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(1), 0.3, -0.2, 1.1, 0.41, -0.27, 0.13, 0.5, -1.2, 2.0, -0.7, 1.5, 3.0)
	f.Add(uint8(2), math.Pi, 0.0, -math.Pi/2, 1.0, 2.0, -0.5, math.Pi/2, -math.Pi/2, math.Pi, 0.0, -math.Pi, 0.25)
	f.Add(uint8(3), -0.01, 0.02, 0.03, 0.0, 0.0, 0.8, 6.2, -6.2, 0.001, -0.001, 3.14159, -3.14159)
	f.Add(uint8(4), 2.5, 1.0, -2.0, -0.3, 0.3, 0.0, 12.0, -12.5, 7.0, 0.0, 1e-9, -1e-300)
	var profiles []*Profile
	for _, m := range allModels() {
		p, err := NewProfile(m, geom.IdentityPose())
		if err != nil {
			f.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	f.Fuzz(func(t *testing.T, model uint8, roll, pitch, yaw, x, y, z, q0, q1, q2, q3, q4, q5 float64) {
		vals := []float64{roll, pitch, yaw, x, y, z, q0, q1, q2, q3, q4, q5}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				t.Skip()
			}
		}
		c := *profiles[int(model)%len(profiles)].Chain
		c.Base = geom.Pose{R: geom.RPY(roll, pitch, yaw), T: geom.V(x, y, z)}
		q := []float64{q0, q1, q2, q3, q4, q5}
		for i := range q {
			q[i] = math.Mod(q[i], 2*twoPi)
		}
		checkForwardMatchesReference(t, &c, q, nil)
	})
}
