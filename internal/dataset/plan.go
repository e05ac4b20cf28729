// Package dataset builds the calibrated synthetic service catalog that
// stands in for the paper's 201 hand-probed Alexa services (see
// "Substitutions" in docs/ARCHITECTURE.md). The catalog is
// deterministic and quota-driven: 201 services, 187 web presences and
// 56 mobile presences whose marginal statistics are constructed to
// match the published measurement — Table I exposure counts exactly, 405
// authentication paths (208 web / 197 mobile) exactly, and the
// dependency-depth shape (≈74% / ≈75% directly compromisable, a
// middle-layer tail, a few percent unreachable) by construction.
//
// Hand-written "flagship" services reproduce the paper's named cases
// (Gmail, Ctrip, Alipay, PayPal, China Railway, Gome, ...); the rest
// are generated fillers drawing from the same template pools.
package dataset

import "github.com/actfort/actfort/internal/ecosys"

// templateKind is the authentication-path profile of one presence.
type templateKind int

const (
	// Direct templates: compromisable with phone + SMS alone.

	// tDirectSigninSMS is passwordless SMS login (Ctrip-style).
	tDirectSigninSMS templateKind = iota + 1
	// tDirectResetSMS is password login with SMS-only reset
	// (Gmail-style).
	tDirectResetSMS
	// tDirectBoth is password login plus SMS-only reset recorded as a
	// two-path account.
	tDirectBoth

	// Depth-2 middle templates: need one harvested factor.

	// tMidCID resets with SMS + citizen ID (Alipay-mobile-style).
	tMidCID
	// tMidName resets with SMS + real name.
	tMidName
	// tMidEMC resets with SMS + email code (PayPal-style).
	tMidEMC
	// tMidLNK signs in through a bound SSO account (Expedia-style).
	tMidLNK

	// Depth-3 middle templates: need a factor only middle accounts
	// expose (bankcard numbers are assigned to non-fringe accounts).

	// tMidBN resets with SMS + bankcard (Alipay-web-style).
	tMidBN
	// tCouple resets with real name + citizen ID + bankcard, which no
	// single account exposes: a couple-node target.
	tCouple

	// Secure templates: unphishable-only, uncompromisable.

	// tSecureBIO is biometric-only.
	tSecureBIO
	// tSecureU2F is hardware-key-only.
	tSecureU2F

	// Mobile composite templates (apps record more paths).

	// mDirect is password login + SMS login + SMS reset.
	mDirect
	// mMidCID is password login + SMS+CID reset.
	mMidCID
	// mMidName is password login + SMS+name reset.
	mMidName
	// mMidEMC is password login + SMS+email-code reset.
	mMidEMC
	// mMidBN is password login + SMS+bankcard reset.
	mMidBN
	// mCouple is password login + name+CID+bankcard reset.
	mCouple
	// mSecure is hardware-key login + biometric reset.
	mSecure
)

// extraKind is an additional path layered on top of a template.
type extraKind int

const (
	// xInfoCID adds an SMS + citizen-ID reset combination.
	xInfoCID extraKind = iota + 1
	// xGeneralEMC adds an SMS + email-code reset combination.
	xGeneralEMC
	// xUniqueBIO adds a biometric sign-in.
	xUniqueBIO
	// xOtherAS adds a customer-service-assisted reset (Alipay web).
	xOtherAS
	// xPay adds an SMS + citizen-ID payment-code reset (Alipay mobile,
	// Case III).
	xPay
)

// tier orders presences for exposure assignment: identity information
// lands on fringe accounts first (that is what makes middle accounts
// reachable), while bankcard numbers land on middle accounts first
// (that is what creates depth-3 chains).
type tier int

const (
	tierDirect tier = iota + 1
	tierMid2
	tierMid3
	tierSecure
)

func templateTier(t templateKind) tier {
	switch t {
	case tDirectSigninSMS, tDirectResetSMS, tDirectBoth, mDirect:
		return tierDirect
	case tMidCID, tMidName, tMidEMC, tMidLNK, mMidCID, mMidName, mMidEMC:
		return tierMid2
	case tMidBN, tCouple, mMidBN, mCouple:
		return tierMid3
	case tSecureBIO, tSecureU2F, mSecure:
		return tierSecure
	}
	return 0
}

// paths materializes a template's authentication paths.
func (t templateKind) paths() []ecosys.AuthPath {
	pw := ecosys.FactorPassword
	sc := ecosys.FactorSMSCode
	pn := ecosys.FactorCellphone
	switch t {
	case tDirectSigninSMS:
		return []ecosys.AuthPath{
			{ID: "signin-sms", Purpose: ecosys.PurposeSignIn, Factors: []ecosys.FactorKind{pn, sc}},
		}
	case tDirectResetSMS:
		return []ecosys.AuthPath{
			{ID: "reset-sms", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{pn, sc}},
		}
	case tDirectBoth:
		return []ecosys.AuthPath{
			{ID: "signin-pw", Purpose: ecosys.PurposeSignIn, Factors: []ecosys.FactorKind{pw}},
			{ID: "reset-sms", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{pn, sc}},
		}
	case tMidCID:
		return []ecosys.AuthPath{
			{ID: "reset-cid", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{sc, ecosys.FactorCitizenID}},
		}
	case tMidName:
		return []ecosys.AuthPath{
			{ID: "reset-name", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{sc, ecosys.FactorRealName}},
		}
	case tMidEMC:
		return []ecosys.AuthPath{
			{ID: "reset-emc", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{sc, ecosys.FactorEmailCode}},
		}
	case tMidLNK:
		return []ecosys.AuthPath{
			{ID: "signin-linked", Purpose: ecosys.PurposeSignIn, Factors: []ecosys.FactorKind{ecosys.FactorLinkedAccount}},
		}
	case tMidBN:
		return []ecosys.AuthPath{
			{ID: "reset-bn", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{sc, ecosys.FactorBankcard}},
		}
	case tCouple:
		return []ecosys.AuthPath{
			{ID: "reset-kyc", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{ecosys.FactorRealName, ecosys.FactorCitizenID, ecosys.FactorBankcard}},
		}
	case tSecureBIO:
		return []ecosys.AuthPath{
			{ID: "signin-bio", Purpose: ecosys.PurposeSignIn, Factors: []ecosys.FactorKind{ecosys.FactorBiometric}},
		}
	case tSecureU2F:
		return []ecosys.AuthPath{
			{ID: "signin-u2f", Purpose: ecosys.PurposeSignIn, Factors: []ecosys.FactorKind{ecosys.FactorU2F}},
		}
	case mDirect:
		return []ecosys.AuthPath{
			{ID: "signin-pw", Purpose: ecosys.PurposeSignIn, Factors: []ecosys.FactorKind{pw}},
			{ID: "signin-sms", Purpose: ecosys.PurposeSignIn, Factors: []ecosys.FactorKind{pn, sc}},
			{ID: "reset-sms", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{pn, sc}},
		}
	case mMidCID:
		return []ecosys.AuthPath{
			{ID: "signin-pw", Purpose: ecosys.PurposeSignIn, Factors: []ecosys.FactorKind{pw}},
			{ID: "reset-cid", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{sc, ecosys.FactorCitizenID}},
		}
	case mMidName:
		return []ecosys.AuthPath{
			{ID: "signin-pw", Purpose: ecosys.PurposeSignIn, Factors: []ecosys.FactorKind{pw}},
			{ID: "reset-name", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{sc, ecosys.FactorRealName}},
		}
	case mMidEMC:
		return []ecosys.AuthPath{
			{ID: "signin-pw", Purpose: ecosys.PurposeSignIn, Factors: []ecosys.FactorKind{pw}},
			{ID: "reset-emc", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{sc, ecosys.FactorEmailCode}},
		}
	case mMidBN:
		return []ecosys.AuthPath{
			{ID: "signin-pw", Purpose: ecosys.PurposeSignIn, Factors: []ecosys.FactorKind{pw}},
			{ID: "reset-bn", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{sc, ecosys.FactorBankcard}},
		}
	case mCouple:
		return []ecosys.AuthPath{
			{ID: "signin-pw", Purpose: ecosys.PurposeSignIn, Factors: []ecosys.FactorKind{pw}},
			{ID: "reset-kyc", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{ecosys.FactorRealName, ecosys.FactorCitizenID, ecosys.FactorBankcard}},
		}
	case mSecure:
		return []ecosys.AuthPath{
			{ID: "signin-u2f", Purpose: ecosys.PurposeSignIn, Factors: []ecosys.FactorKind{ecosys.FactorU2F}},
			{ID: "reset-bio", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{ecosys.FactorBiometric}},
		}
	}
	return nil
}

// signupMethods per template flavor (cosmetic but recorded, as the
// Authentication Process module records registration requirements).
func (t templateKind) signupMethods() []ecosys.SignupMethod {
	switch t {
	case tDirectSigninSMS, mDirect:
		return []ecosys.SignupMethod{ecosys.SignupPhone}
	case tMidLNK:
		return []ecosys.SignupMethod{ecosys.SignupLinked}
	case tMidEMC, mMidEMC:
		return []ecosys.SignupMethod{ecosys.SignupEmail, ecosys.SignupPhone}
	default:
		return []ecosys.SignupMethod{ecosys.SignupUsername, ecosys.SignupPhone}
	}
}

// path materializes an extra path (idx keeps IDs unique per presence).
func (x extraKind) path(idx int) ecosys.AuthPath {
	sc := ecosys.FactorSMSCode
	suffix := string(rune('a' + idx%26))
	switch x {
	case xInfoCID:
		return ecosys.AuthPath{ID: "extra-cid-" + suffix, Purpose: ecosys.PurposeReset,
			Factors: []ecosys.FactorKind{sc, ecosys.FactorCitizenID}}
	case xGeneralEMC:
		return ecosys.AuthPath{ID: "extra-emc-" + suffix, Purpose: ecosys.PurposeReset,
			Factors: []ecosys.FactorKind{sc, ecosys.FactorEmailCode}}
	case xUniqueBIO:
		return ecosys.AuthPath{ID: "extra-bio-" + suffix, Purpose: ecosys.PurposeSignIn,
			Factors: []ecosys.FactorKind{ecosys.FactorBiometric}}
	case xOtherAS:
		return ecosys.AuthPath{ID: "extra-cs-" + suffix, Purpose: ecosys.PurposeReset,
			Factors: []ecosys.FactorKind{ecosys.FactorCustomerService, sc}}
	case xPay:
		return ecosys.AuthPath{ID: "extra-pay-" + suffix, Purpose: ecosys.PurposePaymentReset,
			Factors: []ecosys.FactorKind{sc, ecosys.FactorCitizenID}}
	}
	return ecosys.AuthPath{}
}

// presencePlan describes one platform incarnation before
// materialization.
type presencePlan struct {
	tmpl   templateKind
	extras []extraKind
	// expose is the flagship exposure floor (quota assignment adds to
	// it, never removes).
	expose        []ecosys.Exposure
	emailProvider string
	boundTo       []string
}

// servicePlan is one service before materialization.
type servicePlan struct {
	name   string
	domain ecosys.Domain
	web    *presencePlan
	mobile *presencePlan
}

// Platform quota tables: counts of presences per template.
var webTemplateQuota = map[templateKind]int{
	tDirectSigninSMS: 55,
	tDirectResetSMS:  75,
	tDirectBoth:      9,
	tMidCID:          6,
	tMidName:         4,
	tMidEMC:          5,
	tMidLNK:          3,
	tMidBN:           12,
	tCouple:          8,
	tSecureBIO:       5,
	tSecureU2F:       5,
}

var mobileTemplateQuota = map[templateKind]int{
	mDirect:  42,
	mMidCID:  4,
	mMidName: 2,
	mMidEMC:  3,
	mMidBN:   2,
	mCouple:  2,
	mSecure:  1,
}

// Extra-path quotas per platform (the +12 web / +43 mobile paths that
// bring totals to 208 and 197).
var webExtraQuota = map[extraKind]int{
	xInfoCID:    1,
	xGeneralEMC: 2,
	xOtherAS:    2,
	xUniqueBIO:  7,
}

var mobileExtraQuota = map[extraKind]int{
	xInfoCID:    5,
	xGeneralEMC: 2,
	xUniqueBIO:  24,
	xOtherAS:    11,
	xPay:        1,
}

// exposureQuota fixes, per platform, exactly how many presences expose
// each field. Web and mobile counts for the Table I rows are the exact
// integer numerators recovered from the paper's printed percentages
// (n=187 web, n=56 mobile). The remaining fields (bankcard, photos,
// student ID, histories) are not in Table I; their quotas are chosen
// consistent with the paper's prose (bankcards always masked and rarer
// than other fields; cloud photos on storage services).
var webExposureQuota = map[ecosys.InfoField]int{
	ecosys.InfoRealName:       92,  // 49.20%
	ecosys.InfoCitizenID:      22,  // 11.76%
	ecosys.InfoCellphone:      101, // 54.01%
	ecosys.InfoEmailAddress:   111, // 59.36%
	ecosys.InfoAddress:        96,  // 51.34%
	ecosys.InfoUserID:         86,  // 45.99%
	ecosys.InfoBindingAccount: 84,  // 44.92%
	ecosys.InfoAcquaintance:   60,  // 32.09%
	ecosys.InfoDeviceType:     28,  // 14.97%
	ecosys.InfoBankcard:       30,
	ecosys.InfoPhotos:         12,
	ecosys.InfoStudentID:      6,
	ecosys.InfoOrderHistory:   40,
	ecosys.InfoChatHistory:    20,
}

var mobileExposureQuota = map[ecosys.InfoField]int{
	ecosys.InfoRealName:       42, // 75.00%
	ecosys.InfoCitizenID:      23, // 41.07%
	ecosys.InfoCellphone:      49, // 87.50%
	ecosys.InfoEmailAddress:   36, // 64.29%
	ecosys.InfoAddress:        36, // 64.29%
	ecosys.InfoUserID:         34, // 60.71%
	ecosys.InfoBindingAccount: 32, // 57.14%
	ecosys.InfoAcquaintance:   37, // 66.07%
	ecosys.InfoDeviceType:     20, // 35.71%
	ecosys.InfoBankcard:       14,
	ecosys.InfoPhotos:         6,
	ecosys.InfoStudentID:      3,
	ecosys.InfoOrderHistory:   20,
	ecosys.InfoChatHistory:    10,
}

// maskWindows are the deliberately inconsistent per-service masking
// styles (§IV.B.2 insight 4); index rotation spreads them over
// services so the combining attack has material to merge.
var citizenIDMasks = []ecosys.MaskSpec{
	{Masked: true, VisiblePrefix: 6},
	{Masked: true, VisibleSuffix: 6},
	{Masked: true, VisiblePrefix: 10, VisibleSuffix: 4},
	{Masked: true, VisiblePrefix: 3, VisibleSuffix: 4},
	{Masked: true, VisibleSuffix: 12},
}

var bankcardMasks = []ecosys.MaskSpec{
	{Masked: true, VisibleSuffix: 4},
	{Masked: true, VisiblePrefix: 6},
	{Masked: true, VisiblePrefix: 8, VisibleSuffix: 4},
	{Masked: true, VisibleSuffix: 12},
}

// maskFor picks the mask style for the i-th assignment of a field.
func maskFor(f ecosys.InfoField, i int) ecosys.MaskSpec {
	switch f {
	case ecosys.InfoCitizenID:
		return citizenIDMasks[i%len(citizenIDMasks)]
	case ecosys.InfoBankcard:
		return bankcardMasks[i%len(bankcardMasks)]
	}
	return ecosys.Unmasked
}

// fillerDomains cycles category labels over generated services.
var fillerDomains = []ecosys.Domain{
	ecosys.DomainNews, ecosys.DomainECommerce, ecosys.DomainSocial,
	ecosys.DomainStreaming, ecosys.DomainLifestyle, ecosys.DomainGaming,
	ecosys.DomainEducation, ecosys.DomainHealth, ecosys.DomainTravel,
	ecosys.DomainCloud, ecosys.DomainFintech,
}

// emailProvidersWeb/Mobile are the mailbox hosts rotated over EMC
// accounts. The mobile list only names providers with mobile
// presences, so mobile-only dependency graphs stay closed.
var emailProvidersWeb = []string{"gmail", "netease-163", "outlook", "aliyun-mail"}
var emailProvidersMobile = []string{"gmail", "netease-163"}

// ssoProviders are the bind targets for linked-account sign-ins.
var ssoProviders = []string{"google", "facebook", "qq"}
